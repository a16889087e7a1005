package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envInfo is the header every output carries. Numbers are comparable only
// between runs whose headers agree and whose load stayed low.
type envInfo struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	JournalFS  string  `json:"journal_fs"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
}

func probeEnv(journalDir string) envInfo {
	return envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		JournalFS:  fsType(journalDir),
		LoadStart:  load1(),
	}
}

func (e envInfo) print(stdout, stderr io.Writer) {
	fmt.Fprintf(stdout, "# env: GOMAXPROCS=%d nproc=%d go=%s cpu=%q journal_fs=%s load1=%.2f\n",
		e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.CPU, e.JournalFS, e.LoadStart)
	fmt.Fprintln(stdout, "# numbers compare only with runs whose env line matches, made at low load")
	e.warnLoad(stdout, stderr, "start", e.LoadStart)
}

func (e *envInfo) finish(stdout, stderr io.Writer) {
	e.LoadEnd = load1()
	fmt.Fprintf(stdout, "# env at end: load1=%.2f\n", e.LoadEnd)
	e.warnLoad(stdout, stderr, "end", e.LoadEnd)
}

func (e envInfo) warnLoad(stdout, stderr io.Writer, when string, load float64) {
	if load > float64(e.NumCPU)/2 {
		msg := fmt.Sprintf("NOT COMPARABLE: 1-min load %.2f at %s exceeds nproc/2 = %.1f", load, when, float64(e.NumCPU)/2)
		fmt.Fprintln(stdout, "# "+msg)
		fmt.Fprintln(stderr, "stochbench: warning: "+msg)
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func load1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext2/ext3/ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x9123683e: "btrfs",
		0x58465342: "xfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", st.Type)
}
