// Command perfbench is herosign's end-to-end benchmark. It starts one
// workload's service stack in-process behind a loopback HTTP listener,
// drives it from a seed in rounds of an open loop (latency) and a closed
// loop (throughput), checks every output, and prints one JSON result line.
// With --trace 1 it instead reports per-layer numbers from a traced run
// plus direct calls into the lower layers (the ladder).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sign-fleet --seed 1 --seconds 45 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"herosign/internal/spx"
)

// openShare is the part of a measured span given to the open loop; the
// closed loop gets the rest.
const openShare = 0.4

// setupSamples is how many cold set-ups, each in a fresh process, setup_s
// is the median of.
const setupSamples = 5

// sampleSigs is how many returned signatures per run are byte-compared
// with a fresh spx.Signer's.
const sampleSigs = 3

// poolSize is the number of genuine verify pairs; 32 requests of 16 pairs
// pass before an entry repeats.
const poolSize = 512

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: sign-default, verify-batch or sign-fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "measured seconds (open plus closed loop)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", "", "also write the full result, with the host fingerprint, to this JSON file")
	probe := flag.Bool("setup-probe", false, "set the workload up once, print the set-up time and exit (used for setup_s)")
	compare := flag.Bool("compare", false, "compare the result files named as arguments (written with --out) metric by metric")
	flag.Parse()

	if *compare {
		return compareResults(os.Stdout, flag.Args())
	}

	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *probe {
		return setupProbe(w, *seed)
	}
	res, err := benchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.report(os.Stderr)
	if *out != "" {
		if err := res.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupProbe is the child side of setup_s: one cold set-up in a fresh
// process, so the process-wide signer cache starts empty every time.
func setupProbe(w *workload, seed uint64) int {
	key, err := masterKey(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	d, err := deploy(w, key, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	setup := d.setup
	if err := d.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(setup.Seconds())
	return 0
}

// setupSeconds runs setupSamples probes one after another and returns
// their times.
func setupSeconds(w *workload, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var xs []float64
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", raw, err)
		}
		xs = append(xs, v)
	}
	return xs, nil
}

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Traced      bool              `json:"traced"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsInf(v, 1) {
		v = infMs // a failed request inside the percentile
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// infMs stands in for +Inf (a failed request) in latency metrics: JSON has
// no infinity.
const infMs = 1e9

// line is the JSON object printed as the last line of standard output.
func (r *result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func (r *result) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (r *result) report(f *os.File) {
	fp := r.Fingerprint
	fmt.Fprintf(f, "perfbench %s seed=%d traced=%v host=%s cpu=%q sha_ni=%v avx2=%v nproc=%d gomaxprocs=%d go=%s commit=%s sha2=%s\n",
		r.Workload, r.Seed, r.Traced, fp.Host, fp.CPU, fp.SHANI, fp.AVX2, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.SHA2)
	for _, n := range r.Notes {
		fmt.Fprintln(f, "  "+n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// compareResults prints the metrics of result files side by side. Results
// taken on different hosts (fingerprint Host differs) are marked not
// comparable.
func compareResults(f *os.File, paths []string) int {
	var rs []result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		var r result
		if err == nil {
			err = json.Unmarshal(raw, &r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		rs = append(rs, r)
	}
	if len(rs) < 2 {
		fmt.Fprintln(os.Stderr, "perfbench: --compare needs at least two result files")
		return 2
	}
	comparable := true
	for i, r := range rs {
		fmt.Fprintf(f, "[%d] %s seed=%d traced=%v host=%s commit=%s\n", i, r.Workload, r.Seed, r.Traced, r.Fingerprint.Host, r.Fingerprint.Commit)
		if r.Fingerprint.Host != rs[0].Fingerprint.Host || r.Workload != rs[0].Workload || r.Traced != rs[0].Traced {
			comparable = false
		}
	}
	if !comparable {
		fmt.Fprintln(f, "NOT COMPARABLE: the results differ in host fingerprint, workload or tracing")
	}
	names := make([]string, 0, len(rs[0].Metrics))
	for n := range rs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s", n)
		for _, r := range rs {
			fmt.Fprintf(f, " %14.4f", r.Metrics[n].Value)
		}
		fmt.Fprintf(f, " %s\n", rs[0].Metrics[n].Unit)
	}
	if !comparable {
		return 1
	}
	return 0
}

// benchmark runs workload w for seed over span and returns its result.
func benchmark(w *workload, seed uint64, span time.Duration, traced bool) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Fingerprint: takeFingerprint(), Correct: true, Metrics: map[string]metric{}}
	key, err := masterKey(seed)
	if err != nil {
		return nil, err
	}
	var pool *verifyPool
	if w.verify {
		if pool, err = newVerifyPool(seed, key, poolSize); err != nil {
			return nil, err
		}
	}

	if !traced {
		setups, err := setupSeconds(w, seed)
		if err != nil {
			return nil, err
		}
		run, err := measure(w, seed, key, pool, nil, span)
		if err != nil {
			return nil, err
		}
		if err := run.check(seed, key, res); err != nil {
			return nil, err
		}
		res.set("p50_ms", run.p50(), "ms")
		res.set("throughput_per_s", run.throughput(), "1/s")
		res.set("setup_s", median(setups), "s")
		res.set("heap_mb", median(run.heapMB), "MiB")
		res.Notes = append(res.Notes, run.notes()...)
		res.Notes = append(res.Notes, fmt.Sprintf("setup_s samples: %v", setups))
		return res, nil
	}

	// Traced: the same phases untraced and then traced, each over half the
	// span, so tracing.overhead compares like with like; then the ladder.
	base, err := measure(w, seed, key, pool, nil, span/2)
	if err != nil {
		return nil, err
	}
	if err := base.check(seed, key, res); err != nil {
		return nil, err
	}
	tr := newTracer()
	tracedRun, err := measure(w, seed, key, pool, tr, span/2)
	if err != nil {
		return nil, err
	}
	if err := tracedRun.check(seed, key, res); err != nil {
		return nil, err
	}
	layerMetrics(res, w, base, tracedRun, tr)
	if err := ladder(res, w, seed, key, pool, closedBatchMode(tr, tracedRun)); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, tracedRun.notes()...)
	return res, nil
}

// check runs the correctness checks on a finished run and folds the
// outcome into res.
func (r *runResult) check(seed uint64, key *spx.PrivateKey, res *result) error {
	sample := map[[2]uint64]bool{}
	// A seeded sample of open-loop messages: the schedule, and with it the
	// open-loop message set, depends on the seed alone.
	open := r.open()
	for i := 0; i < sampleSigs && len(open) > 0; i++ {
		d := derive(seed, "sample", uint64(i), 0)
		rec := open[int(binary.LittleEndian.Uint64(d[:8])%uint64(len(open)))]
		sample[[2]uint64{rec.stream, rec.index * uint64(r.w.openBatch)}] = true
	}
	cr, err := checkSigs(seed, key, r.sigs, sample)
	if rerr := r.sigs.release(); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	if r.w.verify {
		checkVerdicts(r.all(), &cr)
	}
	r.checked = cr
	attempted, failed := r.opCounts()
	failed += cr.failures()
	res.Attempted += attempted
	res.Failed += failed
	if cr.failures() > 0 {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("CORRECTNESS: %d signatures failed spx.Verify, %d of %d sampled signatures differ from spx.Signer, %d of %d verdicts wrong (%d forgeries accepted)",
			cr.badSigs, cr.mismatched, cr.compared, cr.wrongVerdicts, cr.verdicts, cr.forgedAccepted))
	}
	return nil
}
