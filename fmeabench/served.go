package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/frcpu"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	// servedClients closed-loop HTTP clients share the daemon, one per
	// host CPU of the reference host.
	servedClients = 2
	// pollInterval is the fixed pause between status polls of one job.
	pollInterval = 2 * time.Millisecond
	// servedSetupReps daemon start-ups are timed per run for setup_s.
	servedSetupReps = 9
	// servedWindowLen is the length of the windows the end-to-end
	// figures are medians over.
	servedWindowLen = time.Second
)

// servedWindow collects the jobs that finished in one window.
type servedWindow struct {
	lat   []float64
	zones int
}

// daemon is one running cmd/served process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *addrWatcher
}

// addrWatcher collects the daemon's log and announces the address it
// reports listening on.
type addrWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrc chan string
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if m := listeningRE.FindSubmatch(w.buf.Bytes()); m != nil {
		select {
		case w.addrc <- string(m[1]):
		default:
		}
	}
	return len(p), nil
}

func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startServed spawns cmd/served with no flags but a free loopback port
// and returns once /healthz answers ok, with the time that took.
func startServed(e *env) (*daemon, time.Duration, error) {
	w := &addrWatcher{addrc: make(chan string, 1)}
	cmd := exec.Command(e.binary("served"), "-listen", "127.0.0.1:0")
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start served: %w", err)
	}
	d := &daemon{cmd: cmd, log: w}
	select {
	case addr := <-w.addrc:
		d.base = "http://" + addr
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("served announced no address: %s", lastLine(w.String()))
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for deadline := start.Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var health struct{ Status string }
		if err := getJSON(hc, d.base+"/healthz", &health); err == nil && health.Status == "ok" {
			return d, time.Since(start), nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("served not healthy after 10s: %s", lastLine(w.String()))
		}
	}
}

// stop drains the daemon with SIGTERM, waits for it and returns its
// CPU time and peak RSS. A daemon that does not exit cleanly within
// ten seconds is killed and reported.
func (d *daemon) stop() (cpu time.Duration, rssKB int64, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, 0, fmt.Errorf("signal served: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck — it may have exited meanwhile
		<-done
		return 0, 0, fmt.Errorf("served did not drain within 10s")
	}
	cpu, rssKB = rusage(d.cmd.ProcessState)
	if err != nil {
		return cpu, rssKB, fmt.Errorf("served exit: %v: %s", err, lastLine(d.log.String()))
	}
	return cpu, rssKB, nil
}

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck — it may have exited meanwhile
	d.cmd.Wait()         //nolint:errcheck — the exit is forced
}

// jobRec is one submit → poll → fetch round trip as a client saw it.
type jobRec struct {
	sub    serve.Submission
	client int
	// start is when the submission was sent; submit, wait and fetch
	// are the three client-side phases, latency their sum.
	start                        time.Time
	submit, wait, fetch, latency time.Duration
	status                       serve.Status // as last polled
	sha                          string
	err                          error
}

// doJob runs one submission through the daemon's HTTP API.
func doJob(hc *http.Client, base string, sub serve.Submission) jobRec {
	r := jobRec{sub: sub, start: time.Now()}
	r.err = func() error {
		body, err := json.Marshal(sub)
		if err != nil {
			return err
		}
		resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		err = decodeJSON(resp, &r.status, http.StatusOK, http.StatusAccepted)
		t1 := time.Now()
		r.submit = t1.Sub(r.start)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		if want := sub.Key(); r.status.Key != want {
			return fmt.Errorf("submit: daemon key %s, want %s", r.status.Key, want)
		}
		for polls := 0; r.status.State != serve.StateDone; polls++ {
			if polls > 0 {
				time.Sleep(pollInterval)
			}
			if err := getJSON(hc, base+"/jobs/"+r.status.ID, &r.status); err != nil {
				return fmt.Errorf("poll: %w", err)
			}
			switch r.status.State {
			case serve.StateFailed, serve.StateCanceled:
				return fmt.Errorf("job %s %s: %s", r.status.ID, r.status.State, r.status.Error)
			}
			if time.Since(t1) > time.Minute {
				return fmt.Errorf("job %s still %s after a minute", r.status.ID, r.status.State)
			}
		}
		t2 := time.Now()
		r.wait = t2.Sub(t1)
		resp, err = hc.Get(base + "/jobs/" + r.status.ID + "/report")
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		r.fetch = time.Since(t2)
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("report: HTTP %d: %s", resp.StatusCode, lastLine(string(b)))
		}
		r.sha = sha256Hex(b)
		return nil
	}()
	r.latency = time.Since(r.start)
	return r
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	return decodeJSON(resp, v, http.StatusOK)
}

// decodeJSON reads a JSON response whose status is one of ok.
func decodeJSON(resp *http.Response, v any, ok ...int) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			return json.Unmarshal(b, v)
		}
	}
	return fmt.Errorf("HTTP %d: %s", resp.StatusCode, lastLine(string(b)))
}

// session is one closed-loop client session against a daemon.
type session struct {
	jobs    []jobRec
	start   time.Time
	metrics telemetry.RegistrySnapshot
}

// runSession drives the daemon with servedClients closed-loop clients
// until the deadline passes or each client has run perClient jobs
// (0 = no limit), then reads the daemon's /metrics.json.
func runSession(base string, seed uint64, until time.Time, perClient int) (*session, error) {
	hc := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: servedClients},
	}
	defer hc.CloseIdleConnections()
	streams := newStreams(seed, servedClients)
	recs := make([][]jobRec, servedClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) && (perClient == 0 || len(recs[c]) < perClient) {
				sub, _, ok := streams[c].next()
				if !ok {
					return
				}
				r := doJob(hc, base, sub)
				r.client = c
				recs[c] = append(recs[c], r)
			}
		}(c)
	}
	wg.Wait()
	s := &session{start: start}
	for _, rs := range recs {
		s.jobs = append(s.jobs, rs...)
	}
	if err := getJSON(hc, base+"/metrics.json", &s.metrics); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return s, nil
}

// verifySession checks every fetched report against an in-process
// core.Run of the same submission, counting each job that errored or
// differs, and returns the zone count of each submission's design.
func verifySession(e *env, o *outcome, s *session) (map[string]int, error) {
	refs, err := referenceReports(s.jobs)
	if err != nil {
		return nil, err
	}
	zonesOf := map[string]int{}
	for _, r := range s.jobs {
		o.attempted++
		key := r.sub.Key()
		ref := refs[key]
		zonesOf[key] = ref.zones
		switch {
		case r.err != nil:
			o.fail(e, "served job: %v", r.err)
		case r.sha != ref.sha:
			o.fail(e, "served job %s (%+v): report sha256 %s, in-process core.Run gives %s",
				r.status.ID, r.sub, r.sha, ref.sha)
		}
	}
	return zonesOf, nil
}

// refReport is the in-process reference for one submission.
type refReport struct {
	sha   string
	zones int
}

// referenceReports runs core.Run in-process once per distinct
// submission among jobs, on servedClients goroutines.
func referenceReports(jobs []jobRec) (map[string]refReport, error) {
	var subs []serve.Submission
	seen := map[string]bool{}
	for _, r := range jobs {
		if k := r.sub.Key(); !seen[k] {
			seen[k] = true
			subs = append(subs, r.sub)
		}
	}
	out := make(map[string]refReport, len(subs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan serve.Submission)
	for w := 0; w < servedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sub := range next {
				as, err := referenceRun(sub)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("in-process core.Run of %+v: %w", sub, err)
				}
				if err == nil {
					out[sub.Key()] = refReport{sha256Hex([]byte(as.Report())), len(as.Analysis.Zones)}
				}
				mu.Unlock()
			}
		}()
	}
	for _, sub := range subs {
		next <- sub
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// referenceRun assesses a submission in-process exactly as the daemon
// maps it onto core.Run.
func referenceRun(sub serve.Submission) (*core.Assessment, error) {
	dut, err := submissionDUT(sub)
	if err != nil {
		return nil, err
	}
	return core.Run(dut, submissionOptions(sub))
}

// submissionDUT builds a submission's design the way the daemon does.
func submissionDUT(sub serve.Submission) (core.DUT, error) {
	switch sub.Design {
	case "v1", "v2":
		f, err := buildMemDUT(sub.Design, sub.AddrWidth)
		if err != nil {
			return nil, err
		}
		f.ValidationWords = sub.Words
		f.Seed = sub.Seed
		return f, nil
	case "cpu", "cpu-lockstep":
		cfg := frcpu.PlainConfig()
		if sub.Design == "cpu-lockstep" {
			cfg = frcpu.LockstepConfig()
		}
		d, err := frcpu.Build(cfg)
		if err != nil {
			return nil, err
		}
		return frcpu.NewFlowDUT(d), nil
	}
	return nil, fmt.Errorf("unknown design %q", sub.Design)
}

// submissionOptions maps a submission onto core.Options the way the
// daemon does.
func submissionOptions(sub serve.Submission) core.Options {
	opts := core.DefaultOptions()
	opts.TargetSIL = iec61508.SIL(sub.TargetSIL)
	opts.HFT = sub.HFT
	opts.RunValidation = sub.Validate
	opts.Plan = inject.PlanConfig{TransientPerZone: sub.Transient, PermanentPerZone: sub.Permanent, Seed: sub.Seed}
	opts.WideFaults = sub.Wide
	opts.Tolerance = sub.Tolerance
	return opts
}

// runServedFMEA is the served-fmea timed run: daemon start-ups for
// setup_s, then the closed-loop clients for the run's length, then
// the correctness gate over every report fetched.
func runServedFMEA(e *env) (*outcome, error) {
	var setups []float64
	for i := 1; i < servedSetupReps; i++ {
		d, took, err := startServed(e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if _, _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	d, took, err := startServed(e)
	if err != nil {
		return nil, err
	}
	setups = append(setups, took.Seconds())
	s, err := runSession(d.base, e.seed, time.Now().Add(e.seconds), 0)
	cpu, rssKB, stopErr := d.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	o := &outcome{correct: true}
	zonesOf, err := verifySession(e, o, s)
	if err != nil {
		return nil, err
	}
	// Every figure is the median over one-second windows of the run,
	// each job counted in the window it finished in, so a burst of
	// load from elsewhere on the host moves only the windows it covers.
	windows := make([]servedWindow, int(e.seconds/servedWindowLen))
	var lat []float64
	hits := 0
	for _, r := range s.jobs {
		lat = append(lat, ms(r.latency))
		if r.status.CacheHit {
			hits++
		}
		i := int(r.start.Add(r.latency).Sub(s.start) / servedWindowLen)
		if r.err != nil || i >= len(windows) {
			continue
		}
		windows[i].lat = append(windows[i].lat, ms(r.latency))
		windows[i].zones += zonesOf[r.sub.Key()]
	}
	var p50, p90, jobs, zones []float64
	for _, w := range windows {
		if len(w.lat) == 0 {
			continue
		}
		p50 = append(p50, median(w.lat))
		p90 = append(p90, quantile(w.lat, 0.9))
		jobs = append(jobs, float64(len(w.lat))/servedWindowLen.Seconds())
		zones = append(zones, float64(w.zones)/servedWindowLen.Seconds())
	}
	ok := o.attempted - o.failed
	o.metrics = map[string]float64{
		"wall_s":         median(p50) / 1000,
		"cpu_s":          cpu.Seconds() / float64(max(ok, 1)),
		"peak_rss_mb":    float64(rssKB) / 1024,
		"exp_per_s":      median(zones),
		"jobs_per_s":     median(jobs),
		"latency_ms_p50": median(p50),
		"latency_ms_p90": median(p90),
		"setup_s":        median(setups),
		"ok_frac":        float64(ok) / float64(max(o.attempted, 1)),
	}
	o.detail = map[string]any{
		"clients": servedClients, "loop": "closed, submit → poll → report per client",
		"poll_interval_ms": ms(pollInterval), "samples": len(lat), "windows": len(p50),
		"jobs_per_window_s":  jobs,
		"cache_hit_frac":     float64(hits) / float64(max(len(s.jobs), 1)),
		"intended_hit_share": intendedHitShare(),
		"served_counters":    s.metrics.Counters,
		"setup_s":            setups,
		"exp_per_s_counts":   "worksheet zone rows in delivered reports (served-fmea jobs run no injection)",
	}
	if p, v, ok := tailPercentile(lat); ok {
		o.detail["tail"] = map[string]float64{"percentile": p, "latency_ms": v}
	}
	return o, nil
}
