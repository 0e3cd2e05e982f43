package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a layer boundary the benchmark records spans at.
type spanKind uint8

const (
	spanStep       spanKind = iota // root: one control interval or server tick
	spanCoordStep                  // ctrlplane.Coordinator.Step (flat)
	spanShardStep                  // ctrlplane.ShardCoordinator.Step (one shard node)
	spanGlobalStep                 // ctrlplane.Global.Step
	spanAgentServe                 // CtrlEndpoint Scrape/Assign/Renew on the agent listener
	spanTrunkServe                 // ShardReport/ShardBudget hooks on a trunk listener
	spanSimRun                     // accountant.Sim.Run for one tick
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"step", "ctrlplane.coord_step", "ctrlplane.shard_step", "ctrlplane.global_step",
	"ctrlplane.agent_serve", "ctrlplane.trunk_serve", "accountant.tick",
}

// span is one recorded call. Times are nanoseconds since the tracer's
// origin; parent is -1 for a step's root.
type span struct {
	kind       spanKind
	node       int16
	id, parent int32
	round      int32
	step       int32
	start, end int64
}

// keepSteps is how many measured traced steps keep every span for the
// written trace; later steps keep all but the per-agent serve spans.
const keepSteps = 20

// tracer records spans in memory at the benchmark's layer boundaries
// and folds each measured step into per-layer totals: duration, and
// self time — a span's duration minus the part of it covered by its
// child spans.
type tracer struct {
	origin time.Time

	mu  sync.Mutex
	cur []span // spans of the open step

	nextID atomic.Int32
	// parent is the open loop-side call: server-side spans recorded
	// on listener goroutines while it runs are its children.
	parent atomic.Int32

	round, step   int32 // guarded by mu: listener goroutines read them
	root          int32
	measured      bool
	detailedSteps int
	kept          []span

	// Counts at the agent and trunk boundaries, folded per step.
	scrapes, assigns, renews, usefulAssigns atomic.Int64
	trunkReports, trunkBudgets              atomic.Int64

	pending map[string]float64 // kernel times and counts of the open step
	// kernels are the open step's kernel intervals. A kernel can run
	// between two calls (a server plan's, mid-minute); it is reported as
	// its own layer, so the step's time and the root's self time
	// (share.harness) exclude it.
	kernels [][2]int64

	rootNs, rootSelfNs float64
	durNs, selfNs      [numSpanKinds]float64
	spans              float64
	sums               map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), pending: map[string]float64{}, sums: map[string]float64{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) beginStep(round, step int, measured bool) {
	t.mu.Lock()
	t.round, t.step = int32(round), int32(step)
	t.mu.Unlock()
	t.measured = measured
	t.root = t.nextID.Add(1)
	t.parent.Store(t.root)
	for _, c := range []*atomic.Int64{&t.scrapes, &t.assigns, &t.renews, &t.usefulAssigns, &t.trunkReports, &t.trunkBudgets} {
		c.Store(0)
	}
	clear(t.pending)
	t.kernels = t.kernels[:0]
}

// open allocates the id of a loop-side call about to run.
func (t *tracer) open() int32 {
	id := t.nextID.Add(1)
	t.parent.Store(id)
	return id
}

// close records a loop-side call as a child of the step's root.
func (t *tracer) close(id int32, kind spanKind, node int, t0, t1 time.Time) {
	t.parent.Store(t.root)
	t.record(span{kind: kind, node: int16(node), id: id, parent: t.root, start: t.ns(t0), end: t.ns(t1)})
}

// child records a server-side call under the loop-side call in progress.
func (t *tracer) child(kind spanKind, node int, t0, t1 time.Time) {
	t.record(span{kind: kind, node: int16(node), id: t.nextID.Add(1), parent: t.parent.Load(), start: t.ns(t0), end: t.ns(t1)})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	s.round, s.step = t.round, t.step
	t.cur = append(t.cur, s)
	t.mu.Unlock()
}

// add adds v to a named per-step total: a kernel's host time or a
// count.
func (t *tracer) add(name string, v float64) { t.pending[name] += v }

// kernel records a kernel run from t0 to t1 under name.
func (t *tracer) kernel(name string, t0, t1 time.Time) {
	t.add(name, float64(t1.Sub(t0).Nanoseconds()))
	t.kernels = append(t.kernels, [2]int64{t.ns(t0), t.ns(t1)})
}

// endStep closes the step's root span — from its first call's start to
// its last call's end — and, for a measured step, folds every span's
// duration and self time into the per-layer totals.
func (t *tracer) endStep() {
	t.mu.Lock()
	spans := append([]span(nil), t.cur...)
	t.cur = t.cur[:0]
	t.mu.Unlock()
	if len(spans) == 0 {
		return
	}
	root := span{kind: spanStep, id: t.root, parent: -1, round: t.round, step: t.step, start: spans[0].start, end: spans[0].end}
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.parent == t.root {
			root.start = min(root.start, s.start)
			root.end = max(root.end, s.end)
		}
		children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
	}
	spans = append(spans, root)
	if !t.measured {
		return
	}
	// The step's time, the base of every share, leaves out the kernels
	// that ran inside it.
	kernelNs := float64(covered(t.kernels, root.start, root.end))
	for _, s := range spans {
		dur := float64(s.end - s.start)
		self := dur - float64(covered(children[s.id], s.start, s.end))
		if s.kind == spanStep {
			t.rootNs += dur - kernelNs
			t.rootSelfNs += self - kernelNs
			continue
		}
		t.durNs[s.kind] += dur
		t.selfNs[s.kind] += self
	}
	t.spans += float64(len(spans))
	t.sums["ctrlplane.scrapes"] += float64(t.scrapes.Load())
	t.sums["ctrlplane.assigns"] += float64(t.assigns.Load())
	t.sums["ctrlplane.renews"] += float64(t.renews.Load())
	t.sums["ctrlplane.useful_assigns"] += float64(t.usefulAssigns.Load())
	t.sums["ctrlplane.trunk_reports"] += float64(t.trunkReports.Load())
	t.sums["ctrlplane.trunk_budgets"] += float64(t.trunkBudgets.Load())
	for k, v := range t.pending {
		t.sums[k] += v
	}
	detailed := t.detailedSteps < keepSteps
	t.detailedSteps++
	for _, s := range spans {
		if detailed || s.kind != spanAgentServe {
			t.kept = append(t.kept, s)
		}
	}
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// report derives the per-layer metrics from steps measured traced
// steps over rounds traced rounds. Every layer is reported on every
// workload; a layer the workload never reaches reads 0.
func (t *tracer) report(steps, rounds int, counts map[string]float64) []metric {
	per := func(v float64) float64 { return v / float64(steps) }
	ms := func(ns float64) float64 { return per(ns) / 1e6 }
	share := func(ns float64) float64 {
		if t.rootNs == 0 {
			return 0
		}
		return ns / t.rootNs
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	s := t.sums
	out := []metric{
		{"ctrlplane.coord_step_ms", ms(t.durNs[spanCoordStep]), "ms"},
		{"ctrlplane.coord_self_ms", ms(t.selfNs[spanCoordStep]), "ms"},
		{"ctrlplane.shard_step_ms", ms(t.durNs[spanShardStep]), "ms"},
		{"ctrlplane.shard_self_ms", ms(t.selfNs[spanShardStep]), "ms"},
		{"ctrlplane.global_step_ms", ms(t.durNs[spanGlobalStep]), "ms"},
		{"ctrlplane.global_self_ms", ms(t.selfNs[spanGlobalStep]), "ms"},
		{"ctrlplane.agent_serve_ms", ms(t.durNs[spanAgentServe]), "ms"},
		{"ctrlplane.scrapes", per(s["ctrlplane.scrapes"]), "count"},
		{"ctrlplane.assigns", per(s["ctrlplane.assigns"]), "count"},
		{"ctrlplane.renews", per(s["ctrlplane.renews"]), "count"},
		{"ctrlplane.assign_useful_frac", ratio(s["ctrlplane.useful_assigns"], s["ctrlplane.assigns"]), "frac"},
		{"ctrlplane.trunk_serve_ms", ms(t.durNs[spanTrunkServe]), "ms"},
		{"ctrlplane.trunk_reports", per(s["ctrlplane.trunk_reports"]), "count"},
		{"ctrlplane.trunk_budgets", per(s["ctrlplane.trunk_budgets"]), "count"},
		{"ctrlplane.batch_frames", ratio(counts["batch_frames"], counts["steps"]), "count"},
		{"ctrlplane.conn_dials", counts["conn_dials"] / float64(rounds), "count"},
		{"cluster.rollup_ms", ms(s["cluster.rollup"]), "ms"},
		{"cluster.apportion_shards_ms", ms(s["cluster.apportion_shards"]), "ms"},
		{"cluster.dp_ms", ms(s["cluster.dp"]), "ms"},
		{"accountant.tick_us", ratio(s["accountant.steady_tick_ns"], s["accountant.steady_ticks"]) / 1e3, "us"},
		{"policy.plan_ms", ratio(s["policy.plan"], s["plans"]) / 1e6, "ms"},
		{"workload.curve_ms", ratio(s["workload.curve"], s["plans"]) / 1e6, "ms"},
		{"allocator.apportion_us", ratio(s["allocator.apportion"], s["plans"]) / 1e3, "us"},
		{"coordinator.schedule_us", ratio(s["coordinator.schedule"], s["plans"]) / 1e3, "us"},
		{"share.harness", share(t.rootSelfNs), "frac"},
		{"share.ctrlplane.coord_self", share(t.selfNs[spanCoordStep]), "frac"},
		{"share.ctrlplane.shard_self", share(t.selfNs[spanShardStep]), "frac"},
		{"share.ctrlplane.global_self", share(t.selfNs[spanGlobalStep]), "frac"},
		{"share.ctrlplane.agent_serve", share(t.durNs[spanAgentServe]), "frac"},
		{"share.ctrlplane.trunk_serve", share(t.durNs[spanTrunkServe]), "frac"},
		{"share.accountant.tick", share(t.durNs[spanSimRun]), "frac"},
		{"share.cluster.rollup", share(s["cluster.rollup"]), "frac"},
		{"share.cluster.apportion_shards", share(s["cluster.apportion_shards"]), "frac"},
		{"share.cluster.dp", share(s["cluster.dp"]), "frac"},
		{"share.policy.plan", ratio(s["policy.plan"], s["accountant.replan_tick_ns"]), "frac"},
		{"trace.spans_per_step", per(t.spans), "count"},
	}
	return out
}

// writeSpans writes the kept spans as JSON lines next to the benchmark
// binary: .bench_build/traces/<workload>-seed<seed>.jsonl.
func writeSpans(workload string, seed int64, spans []span) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(filepath.Dir(exe), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+"-seed"+strconv.FormatInt(seed, 10)+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name    string  `json:"name"`
			Node    int16   `json:"node"`
			ID      int32   `json:"id"`
			Parent  int32   `json:"parent"`
			Round   int32   `json:"round"`
			Step    int32   `json:"step"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{spanNames[s.kind], s.node, s.id, s.parent, s.round, s.step, float64(s.start) / 1e3, float64(s.end) / 1e3}); err != nil {
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
