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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the code and the machine a report was measured
// on.
type fingerprint struct {
	Commit     string
	SourceHash string
	GoVersion  string
	GOMAXPROCS int
	NumCPU     int
	CPUModel   string
	L2Bytes    int64
	L3Bytes    int64
}

func takeFingerprint(root string) fingerprint {
	fp := fingerprint{
		Commit:     "none",
		SourceHash: sourceHash(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		L2Bytes:    cacheBytes(2),
		L3Bytes:    cacheBytes(3),
	}
	// A checkout without git history has no commit; the source hash
	// still identifies the code measured.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

func (fp fingerprint) write(w io.Writer) {
	fmt.Fprintf(w, "commit %s  source %s  %s  GOMAXPROCS=%d  nproc=%d\n",
		fp.Commit, fp.SourceHash, fp.GoVersion, fp.GOMAXPROCS, fp.NumCPU)
	fmt.Fprintf(w, "cpu %q  L2 %s per core  L3 %s\n", fp.CPUModel, mib(fp.L2Bytes), mib(fp.L3Bytes))
}

// sourceHash digests the module's Go sources and go.mod files, skipping
// build output, so two checkouts of the same code hash alike.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
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

// cacheBytes reads the size of CPU 0's unified or data cache of the
// given level from sysfs; 0 when unknown.
func cacheBytes(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		typ, err2 := os.ReadFile(filepath.Join(d, "type"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil ||
			strings.TrimSpace(string(lv)) != strconv.Itoa(level) ||
			strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		s := strings.TrimSpace(string(size))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n * mult
		}
	}
	return 0
}

func mib(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
