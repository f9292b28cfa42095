package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vectorliterag/internal/metrics"
	"vectorliterag/internal/workload"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare
// against the code.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct{ Name string }      `json:"end_to_end"`
	PerLayer  []struct{ Name string }      `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	return out
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	defs := workloads()
	if len(bj.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(bj.Workloads), len(defs))
	}
	for i, w := range bj.Workloads {
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), code %q (%s)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
	if got := names(bj.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", got, endToEndNames)
	}
	if got := names(bj.PerLayer); !slices.Equal(got, perLayerNames) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", got, perLayerNames)
	}
}

// shrunkRun runs one workload at quick scale and returns its result
// and its printed lines.
func shrunkRun(t *testing.T, def workloadDef, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{seed: 3, seconds: 0.001, trace: trace, out: t.TempDir(), sc: quickScale()}
	res, err := execute(def, cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", def.name, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", def.name, res.Correct, res.Failed, res.Attempted, out.String())
	}
	if trace {
		if _, err := os.Stat(filepath.Join(cfg.out, "trace_"+def.name+"_seed3.json")); err != nil {
			t.Errorf("%s: trace file: %v", def.name, err)
		}
	}
	return res, out.String()
}

func printedMetrics(out string) map[string]bool {
	got := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 4 && f[0] == "metric" {
			got[f[1]] = true
		}
	}
	return got
}

func simDigest(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sim_digest ") {
			return line
		}
	}
	return ""
}

func TestShrunkRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds corpora and serves every workload")
	}
	// Workload-specific end-to-end and per-layer metrics, printed
	// beside the ones every workload reports.
	own := map[string][]string{
		"sweep": {"slo_rps", "slo_gain"},
		"fleet": {"goodput_rps", "serve.reject_share", "serve.peak_queue", "brownout.max_level",
			"brownout.time_share", "brownout.mean_shed", "tenant.gold_attainment",
			"tenant.bronze_attainment", "tenant.fairness", "retrieval.recall_gain_pts", "des.shard_speedup"},
		"live": {"goodput_rps", "fresh_attainment", "ingest.mutations", "ingest.reencodes",
			"ingest.tts_p50_ms", "ingest.tts_p99_ms", "adapt.compactions", "adapt.rebuilds"},
		"failover": {"goodput_rps", "serve.retried", "serve.hedged", "serve.hedge_win_share",
			"serve.timed_out", "serve.failed", "serve.recover_ms"},
	}
	for _, def := range workloads() {
		t.Run(def.name, func(t *testing.T) {
			res, out := shrunkRun(t, def, false)
			resT, outT := shrunkRun(t, def, true)
			for _, c := range []struct {
				res   *result
				want  []string
				trace bool
			}{{res, endToEndNames, false}, {resT, perLayerNames, true}} {
				var got []string
				for name := range c.res.Metrics {
					got = append(got, name)
				}
				if !slices.Equal(sortedStrings(got), sortedStrings(c.want)) {
					t.Errorf("trace=%v: result metrics %v, want %v", c.trace, sortedStrings(got), sortedStrings(c.want))
				}
			}
			printed := printedMetrics(out + outT)
			for _, name := range append(append(slices.Clone(endToEndNames), perLayerNames...), own[def.name]...) {
				if !printed[name] {
					t.Errorf("metric %s not printed", name)
				}
			}
			if !printed["failed_share"] {
				t.Error("failed_share not printed")
			}
			if d, dT := simDigest(out), simDigest(outT); d == "" || d != dT {
				t.Errorf("untraced and traced runs disagree: %q vs %q", d, dT)
			}
		})
	}
}

func sortedStrings(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so tail must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 10},
		{20, 0.5, true, 10.5},
		{40, 0.75, true, 30.25},
		{100, 0.90, true, 90.1},
		{250, 0.95, true, 237.55},
		{1000, 0.99, true, 990.01},
	} {
		q, v, ok := tail(seq(c.n))
		if q != c.q || ok != c.ok || v < c.want-1e-9 || v > c.want+1e-9 {
			t.Errorf("n=%d: tail p%g=%v ok=%v, want p%g=%v ok=%v", c.n, 100*q, v, ok, 100*c.q, c.want, c.ok)
		}
	}
	// Samples tied with the percentile are not beyond it: with eleven
	// tied maxima p75 lands on the tie, so the tail falls back to p50.
	flat := seq(30)
	for range 11 {
		flat = append(flat, 100)
	}
	if q, _, _ := tail(flat); q != 0.5 {
		t.Errorf("with eleven tied maxima the tail is p%g, want p50", 100*q)
	}
}

func TestSLORateNeedsFinalWindow(t *testing.T) {
	const arrivals = 120 * time.Second
	wins := func(final float64) []metrics.Window {
		return []metrics.Window{
			{Start: 0, N: 100, Attainment: 1},
			{Start: 30 * time.Second, N: 100, Attainment: 1},
			{Start: 60 * time.Second, N: 100, Attainment: 0.95},
			{Start: 90 * time.Second, N: 100, Attainment: final},
		}
	}
	if !meetsSLO(0.95, wins(0.92), arrivals) {
		t.Error("a steady rate was refused")
	}
	if meetsSLO(0.95, wins(0.80), arrivals) {
		t.Error("a rate whose final window misses the SLO was counted")
	}
	if meetsSLO(0.85, wins(0.95), arrivals) {
		t.Error("a rate below the attainment level was counted")
	}
	if meetsSLO(0.95, wins(0.95)[:3], arrivals) {
		t.Error("a run without a final window was counted")
	}
	ref := []*sample{
		{cell: "a", kind: "vLiteRAG", rate: 10, sloOK: true},
		{cell: "a", kind: "vLiteRAG", rate: 20, sloOK: false},
		{cell: "a", kind: "vLiteRAG", rate: 15, sloOK: true},
		{cell: "b", kind: "vLiteRAG", rate: 5, sloOK: false},
		{cell: "b", kind: "CPU-Only", rate: 5, sloOK: true},
	}
	sums := sloRates(ref)
	if sums["vLiteRAG"] != 15 || sums["CPU-Only"] != 5 {
		t.Errorf("slo rates %v, want vLiteRAG 15 and CPU-Only 5", sums)
	}
}

// served returns a well-ordered served record.
func served(id int) workload.Request {
	return workload.Request{ID: id, ArrivalAt: 1, SearchStart: 2, SearchDone: 3, LLMStart: 4, FirstToken: 5, Done: 6}
}

func TestConservationCatchesBadRecord(t *testing.T) {
	good := []workload.Request{served(0), served(1), {ID: 2, ArrivalAt: 3}}
	if err := checkConservation(good, 3, 1); err != nil {
		t.Fatalf("good records: %v", err)
	}
	dup := append(slices.Clone(good), served(1))
	if err := checkConservation(dup, 4, 1); err == nil {
		t.Error("a request recorded twice passed")
	}
	if err := checkConservation(good, 3, 2); err == nil {
		t.Error("a rejected request that was served passed")
	}
	if err := checkConservation(good, 4, 1); err == nil {
		t.Error("an arrival without a record passed")
	}
}

func TestOrderCatchesBadRecord(t *testing.T) {
	good := []workload.Request{served(0), {ID: 1, ArrivalAt: 9}}
	if err := checkOrder(good); err != nil {
		t.Fatalf("good records: %v", err)
	}
	for name, mutate := range map[string]func(*workload.Request){
		"search before arrival": func(r *workload.Request) { r.SearchStart = 0 },
		"search ends early":     func(r *workload.Request) { r.SearchDone = 1 },
		"LLM before search":     func(r *workload.Request) { r.LLMStart = 2 },
		"token before LLM":      func(r *workload.Request) { r.FirstToken = 3 },
		"done before token":     func(r *workload.Request) { r.Done = 4 },
	} {
		bad := slices.Clone(good)
		mutate(&bad[0])
		if err := checkOrder(bad); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}
