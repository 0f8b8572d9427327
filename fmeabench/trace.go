package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/fit"
	"repro/internal/fmea"
	"repro/internal/iec61508"
	"repro/internal/inject"
	"repro/internal/memsys"
	"repro/internal/telemetry"
	"repro/internal/zones"
)

// perLayer are the metrics of a traced run (-trace 1). Each is
// prefixed by the operation it was traced on: one certify-v2
// assessment, one campaign-v2 campaign and a served-fmea session.
var perLayer = []metricDef{
	{"certify.setup.build_ms", "ms"},
	{"certify.zones.analyze_ms", "ms"},
	{"certify.fmea.worksheet_ms", "ms"},
	{"certify.drc.run_ms", "ms"},
	{"certify.inject.golden_ms", "ms"},
	{"certify.inject.golden_cycles", "count"},
	{"certify.inject.plan_rows", "count"},
	{"certify.inject.zone_campaign_ms", "ms"},
	{"certify.inject.wide_campaign_ms", "ms"},
	{"certify.inject.ns_per_sim_cycle", "ns"},
	{"certify.inject.exp_done", "count"},
	{"certify.inject.batches", "count"},
	{"certify.statfault.pruned_frac", "frac"},
	{"certify.inject.outcomes_inherited", "count"},
	{"certify.inject.toggle_ms", "ms"},
	{"certify.core.report_ms", "ms"},
	{"certify.inject_share", "frac"},
	{"certify.unattributed_ms", "ms"},
	{"certify.trace_overhead_ms", "ms"},
	{"campaign.setup.build_ms", "ms"},
	{"campaign.zones.analyze_ms", "ms"},
	{"campaign.inject.golden_ms", "ms"},
	{"campaign.inject.golden_cycles", "count"},
	{"campaign.inject.plan_rows", "count"},
	{"campaign.inject.campaign_ms", "ms"},
	{"campaign.inject.ns_per_sim_cycle", "ns"},
	{"campaign.inject.exp_done", "count"},
	{"campaign.inject.batches", "count"},
	{"campaign.statfault.pruned_frac", "frac"},
	{"campaign.inject.outcomes_inherited", "count"},
	{"campaign.fmea.worksheet_ms", "ms"},
	{"campaign.inject.render_ms", "ms"},
	{"campaign.unattributed_ms", "ms"},
	{"campaign.trace_overhead_ms", "ms"},
	{"served.serve.submit_ms", "ms"},
	{"served.serve.queue_wait_ms", "ms"},
	{"served.serve.run_ms", "ms"},
	{"served.serve.report_fetch_ms", "ms"},
	{"served.serve.cache_hit_frac", "frac"},
	{"served.setup.build_ms", "ms"},
	{"served.zones.analyze_ms", "ms"},
	{"served.fmea.worksheet_ms", "ms"},
	{"served.drc.run_ms", "ms"},
	{"served.core.report_ms", "ms"},
	{"served.unattributed_ms", "ms"},
}

// tracedJobsPerClient bounds the traced served session.
const tracedJobsPerClient = 100

// span is one timed interval of the trace, relative to its start.
// Spans on one lane nest and never overlap; lanes are concurrent
// clients, and lane 0 is the benchmark's own sequential work.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Lane   int           `json:"lane"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; the run writes them out at its end.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = top level) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0) }

// addLane records a span measured elsewhere, on a client's lane.
func (t *tracer) addLane(name string, parent, lane int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Lane: lane, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans)
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return t.spans[id-1].dur(), err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkSpans verifies that every span lies inside its parent and that
// no two spans with the same parent on the same lane overlap.
func checkSpans(spans []span) error {
	type sibs struct{ parent, lane int }
	last := map[sibs]time.Duration{} // end of the latest child so far
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.Parent >= s.ID || s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %s [%v, %v] is not inside its parent %d %s [%v, %v]",
					s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
		k := sibs{s.Parent, s.Lane}
		if s.Start < last[k] {
			return fmt.Errorf("span %d %s starts at %v, before its previous sibling ends at %v",
				s.ID, s.Name, s.Start, last[k])
		}
		last[k] = s.End
	}
	return nil
}

// flowLayers are the layer durations of one traced assessment.
type flowLayers struct {
	analyze, worksheet, drc, report            time.Duration
	golden, plan, zone, wide, analysis, toggle time.Duration
	goldenCycles, campaignCycles, planRows     int64
}

func (l flowLayers) inject() time.Duration {
	return l.golden + l.plan + l.zone + l.wide + l.analysis + l.toggle
}

func (l flowLayers) total() time.Duration {
	return l.analyze + l.worksheet + l.drc + l.report + l.inject()
}

// traceFlow assesses dut by calling each layer's public functions in
// core.Run's order, each inside its own span under parent, and
// composes the same Assessment core.Run returns.
func traceFlow(t *tracer, parent int, dut core.DUT, opts core.Options, tel *telemetry.Campaign) (*core.Assessment, flowLayers, error) {
	var l flowLayers
	var a *zones.Analysis
	var err error
	if l.analyze, err = t.do("zones.analyze", parent, func() (err error) {
		a, err = dut.Analyze()
		return err
	}); err != nil {
		return nil, l, err
	}
	var as *core.Assessment
	l.worksheet, _ = t.do("fmea.worksheet", parent, func() error {
		w := dut.Worksheet(a, opts.Rates)
		m := w.Totals()
		as = &core.Assessment{
			Name: dut.DesignName(), Analysis: a, Worksheet: w, Metrics: m,
			SIL:         iec61508.MaxSIL(m.SFF(), opts.HFT, true),
			TargetSIL:   opts.TargetSIL,
			Sensitivity: w.SpanAssumptions(opts.Span),
		}
		as.TargetMet = as.SIL >= opts.TargetSIL
		return nil
	})
	if l.drc, err = t.do("drc.run", parent, func() (err error) {
		as.DRC, err = drc.Run(drc.Input{Netlist: a.N, Analysis: a, Worksheet: as.Worksheet, Rates: &opts.Rates}, opts.DRC)
		return err
	}); err != nil {
		return nil, l, err
	}
	if opts.RunValidation {
		if err := traceValidation(t, parent, dut, opts, tel, as, &l); err != nil {
			return nil, l, err
		}
	}
	l.report, _ = t.do("core.report", parent, func() error {
		as.Report()
		return nil
	})
	return as, l, nil
}

// traceValidation is the fault-injection half of traceFlow.
func traceValidation(t *tracer, parent int, dut core.DUT, opts core.Options, tel *telemetry.Campaign, as *core.Assessment, l *flowLayers) error {
	a := as.Analysis
	target := dut.Target(a)
	target.Supervision = opts.Supervision
	target.Telemetry = tel
	target.Workers = opts.Workers
	target.Lanes = opts.Lanes
	target.Collapse = opts.Collapse
	cycles := tel.Registry.Counter("sim_cycles")
	v := &core.Validation{}
	var golden *inject.Golden
	var err error
	if l.golden, err = t.do("inject.golden", parent, func() (err error) {
		golden, err = target.RunGolden(dut.ValidationTrace())
		if err != nil {
			return err
		}
		var inactive []int
		v.Complete, inactive = golden.CompletenessOK()
		for _, zi := range inactive {
			v.InactiveZones = append(v.InactiveZones, a.Zones[zi].Name)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	l.goldenCycles = cycles.Load()
	var plan []inject.Injection
	l.plan, _ = t.do("inject.plan", parent, func() error {
		plan = inject.BuildPlan(a, golden, opts.Plan)
		return nil
	})
	l.planRows = int64(len(plan))
	if l.zone, err = t.do("inject.zone_campaign", parent, func() (err error) {
		v.Report, err = target.Run(golden, plan)
		return err
	}); err != nil {
		return fmt.Errorf("zone campaign: %w", err)
	}
	if opts.WideFaults > 0 {
		if l.wide, err = t.do("inject.wide_campaign", parent, func() (err error) {
			widePlan := inject.WidePlan(a, golden, opts.WideFaults, opts.Plan.Seed+1)
			l.planRows += int64(len(widePlan))
			v.WideReport, err = target.Run(golden, widePlan)
			return err
		}); err != nil {
			return fmt.Errorf("wide campaign: %w", err)
		}
	}
	l.campaignCycles = cycles.Load() - l.goldenCycles
	l.analysis, _ = t.do("inject.analysis", parent, func() error {
		for _, rep := range []*inject.Report{v.Report, v.WideReport} {
			if rep != nil {
				v.Quarantined += len(rep.Quarantined)
				v.AbortedExps += rep.AbortedCount()
			}
		}
		v.Degraded = v.Quarantined > 0 || v.AbortedExps > 0
		v.Rows = v.Report.ValidateWorksheet(a, as.Worksheet, opts.Tolerance)
		v.PassFraction = inject.PassFraction(v.Rows)
		v.Effects = v.Report.CheckEffects(a)
		v.EffectsOK = true
		for _, ec := range v.Effects {
			v.EffectsOK = v.EffectsOK && ec.Consistent
		}
		return nil
	})
	if l.toggle, err = t.do("inject.toggle", parent, func() error {
		rep, err := target.ToggleCoverage(dut.CoverageTrace())
		if err != nil {
			return err
		}
		v.ToggleRaw = rep.Coverage()
		v.ToggleAdj, _ = target.AdjustedToggle(rep)
		v.ToggleOK = v.ToggleAdj >= opts.ToggleThreshold
		return nil
	}); err != nil {
		return fmt.Errorf("toggle measurement: %w", err)
	}
	as.Validation = v
	return nil
}

// bracket runs one untraced invocation of w now and returns a function
// that runs another and gives the mean wall time of the two.
func bracket(e *env, o *outcome, w cliWorkload) func() time.Duration {
	first, _ := w.invoke(e, o)
	return func() time.Duration {
		second, _ := w.invoke(e, o)
		return (first.wall + second.wall) / 2
	}
}

// certifyOptions are the options `certify -design v2 -validate` runs
// core.Run with.
func certifyOptions() core.Options {
	opts := core.DefaultOptions()
	opts.TargetSIL = iec61508.SIL3
	opts.HFT = 0
	opts.RunValidation = true
	opts.Plan = inject.PlanConfig{TransientPerZone: 1, PermanentPerZone: 1, Seed: 1}
	return opts
}

// campaignCounters reads the engine counters the per-layer metrics use.
func campaignCounters(tel *telemetry.Campaign) (expDone, batches, pruned, inherited int64) {
	c := tel.Registry.Snapshot().Counters
	return c["exp_done"], c["batches"], c["faults_collapsed"] + c["faults_static_pruned"], c["outcomes_inherited"]
}

// traceAll is the traced run: the three workloads' operations, each
// timed layer by layer from outside, with the spans written to
// spans.jsonl in the scratch directory.
func traceAll(e *env) (*outcome, error) {
	t := newTracer()
	o := &outcome{correct: true, metrics: map[string]float64{}, detail: map[string]any{}}
	for _, step := range []func(*env, *tracer, *outcome) error{traceCertify, traceCampaign, traceServed} {
		if err := step(e, t, o); err != nil {
			return nil, err
		}
	}
	if err := checkSpans(t.spans); err != nil {
		return nil, fmt.Errorf("internal: %w", err)
	}
	path := filepath.Join(e.tmp, "spans.jsonl")
	if err := t.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	o.detail["spans"] = map[string]any{"file": path, "count": len(t.spans)}
	if err := checkMetricSet(o.metrics, perLayer); err != nil {
		return nil, err
	}
	return o, nil
}

// traceCertify times one `certify -design v2 -validate` untraced, then
// runs the same assessment through core.Run and through traceFlow
// in-process. The traced report must equal core.Run's byte for byte,
// with the same experiment count.
func traceCertify(e *env, t *tracer, o *outcome) error {
	refTel := telemetry.NewCampaign(nil, nil)
	opts := certifyOptions()
	opts.Telemetry = refTel
	dut, err := buildMemDUT("v2", 8)
	if err != nil {
		return err
	}
	ref, err := core.Run(dut, opts)
	if err != nil {
		return fmt.Errorf("core.Run: %w", err)
	}
	refExps, _, _, _ := campaignCounters(refTel)

	// Untraced invocations bracket the traced one, so drift in the
	// host's speed affects both sides alike.
	wall := bracket(e, o, certifyV2)
	tel := telemetry.NewCampaign(nil, nil)
	root := t.begin("certify-v2", 0)
	build, err := t.do("memsys.build", root, func() (err error) {
		dut, err = buildMemDUT("v2", 8)
		return err
	})
	if err != nil {
		return err
	}
	as, l, err := traceFlow(t, root, dut, certifyOptions(), tel)
	t.end(root)
	if err != nil {
		return fmt.Errorf("traced certify: %w", err)
	}
	traced := t.spans[root-1].dur()
	untraced := wall()

	o.attempted++
	expDone, batches, pruned, inherited := campaignCounters(tel)
	switch rep := as.Report(); {
	case rep != ref.Report():
		o.fail(e, "traced certify report differs from core.Run's")
	case sha256Hex([]byte(rep+"\n\n")) != certifyV2SHA:
		o.fail(e, "traced certify report does not match the recorded certify output")
	case expDone != refExps || expDone != certifyV2Exps:
		o.fail(e, "traced certify ran %d experiments, core.Run %d, recorded %d", expDone, refExps, certifyV2Exps)
	}
	layers := build + l.total()
	set := func(name string, v float64) { o.metrics["certify."+name] = v }
	set("setup.build_ms", ms(build))
	set("zones.analyze_ms", ms(l.analyze))
	set("fmea.worksheet_ms", ms(l.worksheet))
	set("drc.run_ms", ms(l.drc))
	set("inject.golden_ms", ms(l.golden))
	set("inject.golden_cycles", float64(l.goldenCycles))
	set("inject.plan_rows", float64(l.planRows))
	set("inject.zone_campaign_ms", ms(l.zone))
	set("inject.wide_campaign_ms", ms(l.wide))
	set("inject.ns_per_sim_cycle", float64(l.zone+l.wide)/float64(max(l.campaignCycles, 1)))
	set("inject.exp_done", float64(expDone))
	set("inject.batches", float64(batches))
	set("statfault.pruned_frac", float64(pruned)/float64(max(l.planRows, 1)))
	set("inject.outcomes_inherited", float64(inherited))
	set("inject.toggle_ms", ms(l.toggle))
	set("core.report_ms", ms(l.report))
	set("inject_share", float64(l.inject())/float64(traced))
	set("unattributed_ms", ms(untraced-layers))
	set("trace_overhead_ms", ms(traced-untraced))
	o.detail["certify"] = map[string]any{
		"untraced_wall_ms": ms(untraced), "traced_total_ms": ms(traced),
		"campaign_sim_cycles": l.campaignCycles, "inject_analysis_ms": ms(l.analysis),
		"inject_plan_ms": ms(l.plan),
	}
	return nil
}

// traceCampaign times one `injector -design v2` untraced, then runs the
// same campaign in-process the way cmd/injector does, each step in its
// own span. The traced canonical report must equal the recorded one.
func traceCampaign(e *env, t *tracer, o *outcome) error {
	wall := bracket(e, o, campaignV2)
	tel := telemetry.NewCampaign(nil, nil)
	cycles := tel.Registry.Counter("sim_cycles")
	root := t.begin("campaign-v2", 0)
	var d *memsys.Design
	build, err := t.do("memsys.build", root, func() (err error) {
		cfg := memsys.V2Config()
		cfg.AddrWidth = 6
		d, err = memsys.Build(cfg)
		return err
	})
	if err != nil {
		return err
	}
	var a *zones.Analysis
	analyze, err := t.do("zones.analyze", root, func() (err error) {
		a, err = d.Analyze()
		return err
	})
	if err != nil {
		return err
	}
	// cmd/injector's defaults: NumCPU workers, cold start, one lane,
	// no collapse, quarantine on.
	target := d.InjectionTargetSeeded(a, d.SeedFaults())
	target.Workers = runtime.NumCPU()
	target.Supervision = inject.Supervision{Clock: time.Now, Quarantine: true, CheckpointEvery: 16}
	target.Telemetry = tel
	var g *inject.Golden
	golden, err := t.do("inject.golden", root, func() (err error) {
		g, err = target.RunGolden(d.ValidationWorkload(8, 1))
		return err
	})
	if err != nil {
		return err
	}
	goldenCycles := cycles.Load()
	var plan []inject.Injection
	planned, _ := t.do("inject.plan", root, func() error {
		plan = inject.BuildPlan(a, g, inject.PlanConfig{TransientPerZone: 6, PermanentPerZone: 3, Seed: 1})
		plan = append(plan, inject.WidePlan(a, g, 12, 2)...)
		return nil
	})
	var rep *inject.Report
	campaign, err := t.do("inject.campaign", root, func() (err error) {
		rep, err = target.Run(g, plan)
		return err
	})
	if err != nil {
		return err
	}
	campaignCycles := cycles.Load() - goldenCycles
	var w *fmea.Worksheet
	worksheet, _ := t.do("fmea.worksheet", root, func() error {
		w = d.Worksheet(a, fit.Default())
		return nil
	})
	var buf bytes.Buffer
	render, _ := t.do("inject.render", root, func() error {
		rep.WriteText(&buf, a, w, 0.35)
		return nil
	})
	t.end(root)
	traced := t.spans[root-1].dur()
	untraced := wall()

	o.attempted++
	expDone, batches, pruned, inherited := campaignCounters(tel)
	switch {
	case sha256Hex(buf.Bytes()) != campaignV2SHA:
		o.fail(e, "traced campaign report does not match the recorded injector -out")
	case len(plan) != campaignV2Exps || expDone != int64(len(plan)):
		o.fail(e, "traced campaign planned %d and ran %d experiments, injector runs %d", len(plan), expDone, campaignV2Exps)
	}
	layers := build + analyze + golden + planned + campaign + worksheet + render
	set := func(name string, v float64) { o.metrics["campaign."+name] = v }
	set("setup.build_ms", ms(build))
	set("zones.analyze_ms", ms(analyze))
	set("inject.golden_ms", ms(golden))
	set("inject.golden_cycles", float64(goldenCycles))
	set("inject.plan_rows", float64(len(plan)))
	set("inject.campaign_ms", ms(campaign))
	set("inject.ns_per_sim_cycle", float64(campaign)/float64(max(campaignCycles, 1)))
	set("inject.exp_done", float64(expDone))
	set("inject.batches", float64(batches))
	set("statfault.pruned_frac", float64(pruned)/float64(max(len(plan), 1)))
	set("inject.outcomes_inherited", float64(inherited))
	set("fmea.worksheet_ms", ms(worksheet))
	set("inject.render_ms", ms(render))
	set("unattributed_ms", ms(untraced-layers))
	set("trace_overhead_ms", ms(traced-untraced))
	o.detail["campaign"] = map[string]any{
		"untraced_wall_ms": ms(untraced), "traced_total_ms": ms(traced),
		"campaign_sim_cycles": campaignCycles, "inject_plan_ms": ms(planned),
		"workers": target.Workers,
	}
	return nil
}

// traceServed runs a bounded served-fmea session, records each job's
// client-side phases as spans, then decomposes every distinct missed
// submission in-process layer by layer.
func traceServed(e *env, t *tracer, o *outcome) error {
	root := t.begin("served-fmea", 0)
	defer t.end(root)
	setup := t.begin("serve.setup", root)
	d, _, err := startServed(e)
	t.end(setup)
	if err != nil {
		return err
	}
	sess := t.begin("serve.session", root)
	s, err := runSession(d.base, e.seed, time.Now().Add(time.Hour), tracedJobsPerClient)
	t.end(sess)
	stop := t.begin("serve.stop", root)
	_, _, stopErr := d.stop()
	t.end(stop)
	if err != nil {
		return err
	}
	if stopErr != nil {
		return stopErr
	}
	// Clients run concurrently, so each gets its own lane.
	for c := 0; c < servedClients; c++ {
		var mine []jobRec
		for _, r := range s.jobs {
			if r.client == c {
				mine = append(mine, r)
			}
		}
		if len(mine) == 0 {
			continue
		}
		last := mine[len(mine)-1]
		cid := t.addLane(fmt.Sprintf("client-%d", c), sess, c+1, mine[0].start, last.start.Add(last.latency))
		for _, r := range mine {
			job := t.addLane("serve.job", cid, c+1, r.start, r.start.Add(r.latency))
			t1, t2 := r.start.Add(r.submit), r.start.Add(r.submit+r.wait)
			t.addLane("serve.submit", job, c+1, r.start, t1)
			t.addLane("serve.wait", job, c+1, t1, t2)
			t.addLane("serve.fetch", job, c+1, t2, t2.Add(r.fetch))
		}
	}
	if _, err := verifySession(e, o, s); err != nil {
		return err
	}

	var lat, submit, queue, run, fetch []float64
	var build, analyze, worksheet, drcRun, report []float64
	decompose := t.begin("fmea.decompose", root)
	defer t.end(decompose)
	for _, r := range s.jobs {
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.latency))
		submit = append(submit, ms(r.submit))
		queue = append(queue, 1000*r.status.QueueSec)
		run = append(run, 1000*r.status.RunSec)
		fetch = append(fetch, ms(r.fetch))
		if r.status.CacheHit {
			continue
		}
		job := t.begin("fmea.job", decompose)
		var dut core.DUT
		b, err := t.do("setup.build", job, func() (err error) {
			dut, err = submissionDUT(r.sub)
			return err
		})
		if err != nil {
			t.end(job)
			return err
		}
		as, l, err := traceFlow(t, job, dut, submissionOptions(r.sub), telemetry.NewCampaign(nil, nil))
		t.end(job)
		if err != nil {
			return fmt.Errorf("traced %+v: %w", r.sub, err)
		}
		o.attempted++
		if sha256Hex([]byte(as.Report())) != r.sha {
			o.fail(e, "traced FMEA of %+v differs from the served report", r.sub)
		}
		build = append(build, ms(b))
		analyze = append(analyze, ms(l.analyze))
		worksheet = append(worksheet, ms(l.worksheet))
		drcRun = append(drcRun, ms(l.drc))
		report = append(report, ms(l.report))
	}
	c := s.metrics.Counters
	hits, misses := c["served_cache_hits"], c["served_cache_misses"]
	set := func(name string, v float64) { o.metrics["served."+name] = v }
	set("serve.submit_ms", mean(submit))
	set("serve.queue_wait_ms", mean(queue))
	set("serve.run_ms", mean(run))
	set("serve.report_fetch_ms", mean(fetch))
	set("serve.cache_hit_frac", float64(hits)/float64(max(hits+misses, 1)))
	set("setup.build_ms", mean(build))
	set("zones.analyze_ms", mean(analyze))
	set("fmea.worksheet_ms", mean(worksheet))
	set("drc.run_ms", mean(drcRun))
	set("core.report_ms", mean(report))
	set("unattributed_ms", mean(lat)-mean(submit)-mean(queue)-mean(run)-mean(fetch))
	o.detail["served"] = map[string]any{
		"jobs": len(s.jobs), "misses_decomposed": len(build), "mean_latency_ms": mean(lat),
		"poll_interval_ms": ms(pollInterval), "served_counters": c,
		"served_queue_wait_ms_hist": s.metrics.Histograms["served_queue_wait_ms"],
		"served_run_ms_hist":        s.metrics.Histograms["served_run_ms"],
	}
	return nil
}
