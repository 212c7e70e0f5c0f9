package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"herosign/internal/sha2"
)

// fingerprint identifies the host and build a result came from. Two
// results are comparable only when their Host values match.
type fingerprint struct {
	CPU        string `json:"cpu"`
	SHANI      bool   `json:"sha_ni"`
	AVX2       bool   `json:"avx2"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SHA2 is the compression backend herosign dispatched to at start-up:
	// "native" (SHA-NI), "stdlib" or "portable".
	SHA2 string `json:"sha2_backend"`
	// Host hashes every field except Commit: the part that must match for
	// two results to be comparable.
	Host string `json:"host"`
}

func takeFingerprint() fingerprint {
	f := fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SHA2:       sha2Backend(),
	}
	f.CPU, f.SHANI, f.AVX2 = cpuInfo()
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				f.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			f.Commit += "+dirty"
		}
	}
	h := sha256.New()
	for _, s := range []string{f.CPU, boolStr(f.SHANI), boolStr(f.AVX2), strconv.Itoa(f.NumCPU), strconv.Itoa(f.GOMAXPROCS), f.GoVersion, f.SHA2} {
		h.Write([]byte(s + "\x00"))
	}
	f.Host = hex.EncodeToString(h.Sum(nil))[:16]
	return f
}

func sha2Backend() string {
	switch {
	case sha2.Native():
		return "native"
	case sha2.Accelerated():
		return "stdlib"
	}
	return "portable"
}

// cpuInfo reads the CPU model and the flags herosign's kernels care about.
func cpuInfo() (model string, shaNI, avx2 bool) {
	model = runtime.GOARCH
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, false, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			model = strings.TrimSpace(v)
		case "flags":
			for _, fl := range strings.Fields(v) {
				shaNI = shaNI || fl == "sha_ni"
				avx2 = avx2 || fl == "avx2"
			}
			return model, shaNI, avx2
		}
	}
	return model, shaNI, avx2
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// cpuTicks reads the host's aggregate CPU time counters: the total and the
// part stolen by the hypervisor for other guests. ok is false where
// /proc/stat is unavailable.
func cpuTicks() (total, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}
