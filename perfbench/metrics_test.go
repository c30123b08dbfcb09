package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONInStep checks that BENCHMARK.json declares exactly the
// metrics, with the same units, that the two kinds of run report.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, reported []metricDef) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the run reports %d", kind, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			if d.Name != reported[i].name || d.Unit != reported[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), run %s (%s)", kind, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
