package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the host and the tree a result came from.
// Results whose host parts differ are never compared: a number measured
// on one machine says nothing about another.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the git HEAD when the tree is a git work tree, else
	// "none"; Dirty is "yes", "no", or "unknown" without git. Source is
	// a digest of every Go source and module file, which identifies the
	// tree even in a checkout that is not a git repository.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
	Source string `json:"source"`
}

// hostKey is the part of a fingerprint two comparable results share.
func (f fingerprint) hostKey() string {
	return fmt.Sprintf("nproc=%d cpu=%q go=%s gomaxprocs=%d", f.NProc, f.CPUModel, f.GoVersion, f.GOMAXPROCS)
}

func takeFingerprint(root string) fingerprint {
	f := fingerprint{
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "none",
		Dirty:      "unknown",
		Source:     sourceDigest(root),
	}
	if top, err := gitOut(root, "rev-parse", "--show-toplevel"); err == nil && sameDir(top, root) {
		if head, err := gitOut(root, "rev-parse", "HEAD"); err == nil {
			f.Commit = head
		}
		if st, err := gitOut(root, "status", "--porcelain", "--untracked-files=no"); err == nil {
			f.Dirty = map[bool]string{true: "yes", false: "no"}[st != ""]
		}
	}
	return f
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", dir}, args...)...)
	b, err := cmd.Output()
	return strings.TrimSpace(string(b)), err
}

func sameDir(a, b string) bool {
	ia, err1 := os.Stat(a)
	ib, err2 := os.Stat(b)
	return err1 == nil && err2 == nil && os.SameFile(ia, ib)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, skipping hidden directories (the build
// directory among them).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
