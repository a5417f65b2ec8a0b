package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, false}, // a single operation has no percentile
		{19, 0.5, 10, false},
		{20, 0.5, 10, true}, // ten samples above the median
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %t; want %g, %t", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeSingleOperation(t *testing.T) {
	l := summarize([]float64{1234})
	if l.Samples != 1 || len(l.MS) != 0 {
		t.Fatalf("one sample reported %+v; want only the count", l)
	}
	l = summarize(seq(100))
	if _, ok := l.MS["p90"]; !ok {
		t.Errorf("100 samples: p90 missing in %+v", l)
	}
	if _, ok := l.MS["p99"]; ok {
		t.Errorf("100 samples: p99 reported with one sample beyond it: %+v", l)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}

// The harness prints exactly the metrics BENCHMARK.json declares, and
// runs exactly the workloads it names.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, harness %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, want)
		}
	}
}
