package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/memsys"
)

// Recorded outputs of the CLI workloads. The front-ends are
// deterministic, so any other bytes are a correctness failure.
const (
	// certifyV2SHA is the SHA-256 of `certify -design v2 -validate`
	// standard output: core.Run's report plus two newlines.
	certifyV2SHA = "44d69e1da0e2b087c3bf000db1aeb757531ddc98b209cf4552aa458177eccfeb"
	// certifyV2Exps is the experiment count of that assessment: the
	// 1+1-per-zone plan plus 16 wide faults.
	certifyV2Exps = 146
	// campaignV2SHA is the SHA-256 of the canonical report
	// `injector -design v2 -out` writes.
	campaignV2SHA = "e5a98afb3b60753a83bcd78b8c8a3af64ad55b78fe23f8be384e34e9d829a825"
	// campaignV2Exps is that campaign's plan: 6 transient and 3
	// permanent faults per zone plus 12 wide faults.
	campaignV2Exps = 513
)

// setupReps is how many in-process set-ups a run times for setup_s
// before each timed invocation.
const setupReps = 21

// cliWorkload is a front-end run in a closed loop, one invocation at a
// time.
type cliWorkload struct {
	binary string
	// args builds the command line; out is a scratch file path the
	// invocation may write.
	args func(out string) []string
	// check verifies one invocation's output and returns its
	// experiment count.
	check func(stdout []byte, out string) (exps int, err error)
	// setup is the front-end's in-process design set-up.
	setup func() error
	// threads is how many threads the front-end keeps busy, which the
	// host reference matches.
	threads int
}

var certifyV2 = cliWorkload{
	binary: "certify",
	args:   func(string) []string { return []string{"-design", "v2", "-validate"} },
	check: func(stdout []byte, _ string) (int, error) {
		if got := sha256Hex(stdout); got != certifyV2SHA {
			return 0, fmt.Errorf("certify stdout sha256 %s, want %s", got, certifyV2SHA)
		}
		return certifyV2Exps, nil
	},
	setup: func() error {
		_, err := buildMemDUT("v2", 8)
		return err
	},
	threads: 1, // core.Options.Workers is 0: the campaign runs serially
}

var runningRE = regexp.MustCompile(`running (\d+) injection experiments`)

var campaignV2 = cliWorkload{
	binary: "injector",
	args:   func(out string) []string { return []string{"-design", "v2", "-out", out} },
	check: func(stdout []byte, out string) (int, error) {
		m := runningRE.FindSubmatch(stdout)
		if m == nil {
			return 0, fmt.Errorf("injector stdout lacks the experiment count")
		}
		n, err := strconv.Atoi(string(m[1]))
		if err != nil {
			return 0, err
		}
		if n != campaignV2Exps {
			return 0, fmt.Errorf("injector ran %d experiments, want %d", n, campaignV2Exps)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			return 0, err
		}
		if got := sha256Hex(b); got != campaignV2SHA {
			return 0, fmt.Errorf("injector -out sha256 %s, want %s", got, campaignV2SHA)
		}
		return n, nil
	},
	setup: func() error {
		_, err := buildMemDUT("v2", 6)
		return err
	},
	threads: runtime.NumCPU(), // the injector's default -workers
}

// runCLI runs w back to back for the run's length and reports the
// end-to-end metrics. Every invocation counts as an operation; one
// that exits non-zero or writes other bytes than recorded fails. One
// untimed invocation warms the page cache first. Before each timed
// invocation the front-end's in-process set-up is timed setupReps
// times, so setup_s samples the whole run. The host reference runs
// before the first of these steps and after every invocation, and each
// step is scaled by the reference calls around it (see hostref.go). No
// invocation starts that would, at the median time so far, end past
// the run's length.
func runCLI(e *env, w cliWorkload) (*outcome, error) {
	o := &outcome{correct: true}
	w.invoke(e, o)
	ref, err := newHostRef(w.threads)
	if err != nil {
		return nil, err
	}
	if err := ref.measure(); err != nil {
		return nil, err
	}
	var walls, cpus, rss, setups, scaledWalls, scaledCPUs, scaledSetups []float64
	exps, passed := 0, 0
	for start := time.Now(); len(walls) == 0 || time.Since(start).Seconds()+median(walls) < e.seconds.Seconds(); {
		setup, err := timeSetup(w.setup)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st, n := w.invoke(e, o)
		if err := ref.measure(); err != nil {
			return nil, err
		}
		i := len(walls)
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
		scaledWalls = append(scaledWalls, st.wall.Seconds()/ref.at(i))
		scaledCPUs = append(scaledCPUs, st.cpu.Seconds()/ref.cpuAt(i))
		for _, x := range setup {
			setups = append(setups, x)
			scaledSetups = append(scaledSetups, x/ref.at(i))
		}
		rss = append(rss, float64(st.rssKB)/1024)
		exps += n
		if n > 0 {
			passed++
		}
	}
	ok := o.attempted - o.failed
	wall := median(scaledWalls)
	o.metrics = map[string]float64{
		"wall_s":         wall,
		"cpu_s":          median(scaledCPUs),
		"peak_rss_mb":    median(rss),
		"exp_per_s":      float64(exps) / float64(max(passed, 1)) / wall,
		"jobs_per_s":     1 / wall,
		"latency_ms_p50": 1000 * wall,
		"latency_ms_p90": 1000 * quantile(scaledWalls, 0.9),
		"setup_s":        median(scaledSetups),
		"ok_frac":        float64(ok) / float64(o.attempted),
	}
	o.detail = map[string]any{
		"binary": w.binary, "args": w.args("<out>"), "samples": len(walls),
		"wall_s": scaledWalls, "experiments_per_op": exps / max(passed, 1),
		"setup_reps": len(setups), "loop": "closed, 1 invocation at a time, 1 untimed warm-up",
		"host": map[string]any{
			"ref_threads": w.threads, "ref_cpus": ref.cpus, "ref_nominal_s": refNominal,
			"ref_s": ref.times, "ref_cpu_s": ref.cpu,
		},
		"raw": map[string]any{
			"wall_s": walls, "cpu_s": cpus, "median_wall_s": median(walls),
			"median_cpu_s": median(cpus), "setup_s": median(setups),
		},
	}
	if p, v, ok := tailPercentile(scaledWalls); ok {
		o.detail["tail"] = map[string]float64{"percentile": p, "wall_s": v}
	}
	return o, nil
}

// invoke runs w once, checks its output and counts it in o; the
// experiment count is 0 for a failed invocation.
func (w cliWorkload) invoke(e *env, o *outcome) (procStats, int) {
	out := filepath.Join(e.tmp, "op.out")
	defer os.Remove(out) //nolint:errcheck — absent when the run wrote none
	var stdout bytes.Buffer
	o.attempted++
	st, err := runProc(e.binary(w.binary), w.args(out), &stdout)
	n := 0
	if err == nil {
		n, err = w.check(stdout.Bytes(), out)
	}
	if err != nil {
		o.fail(e, "%s: %v", w.binary, err)
		return st, 0
	}
	return st, n
}

// procStats is one finished child process's cost.
type procStats struct {
	wall, cpu time.Duration
	rssKB     int64
}

// runProc runs one front-end invocation to completion. The child is
// killed if the benchmark dies first.
func runProc(bin string, args []string, stdout io.Writer) (procStats, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	st := procStats{wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		st.cpu, st.rssKB = rusage(ps)
	}
	if err != nil {
		return st, fmt.Errorf("%v: %s", err, lastLine(stderr.String()))
	}
	return st, nil
}

// rusage reads a finished process's user+system time and peak RSS.
func rusage(ps *os.ProcessState) (cpu time.Duration, rssKB int64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssKB = ru.Maxrss
	}
	return cpu, rssKB
}

// timeSetup times setupReps calls of fn, in seconds, each on a freshly
// collected heap as a front-end process starts with.
func timeSetup(fn func() error) ([]float64, error) {
	out := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// buildMemDUT builds a memory sub-system design the way cmd/certify
// does.
func buildMemDUT(design string, addrWidth int) (*memsys.FlowDUT, error) {
	cfg := memsys.V1Config()
	if design == "v2" {
		cfg = memsys.V2Config()
	}
	cfg.AddrWidth = addrWidth
	d, err := memsys.Build(cfg)
	if err != nil {
		return nil, err
	}
	return memsys.NewFlowDUT(d), nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
