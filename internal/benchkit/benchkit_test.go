package benchkit

import (
	"math"
	"testing"
)

func TestFlattenDropsTimingOnlyWhenAsked(t *testing.T) {
	doc := map[string]any{
		"schema": "switchbench/x",
		"timing": map[string]any{"wall_ms": 12.5},
		"rows": []any{
			map[string]any{"a": 1.0},
			map[string]any{"a": 2.0, "timing": map[string]any{"wall_ms": 3.0}},
		},
	}
	flat := Flatten("", doc, true)
	if _, ok := flat["timing.wall_ms"]; ok {
		t.Error("dropTiming kept the top-level timing section")
	}
	if _, ok := flat["rows[1].timing.wall_ms"]; ok {
		t.Error("dropTiming kept a nested timing section")
	}
	if flat["rows[0].a"] != 1.0 || flat["rows[1].a"] != 2.0 || flat["schema"] != "switchbench/x" {
		t.Errorf("flatten lost leaves: %v", flat)
	}
	kept := Flatten("", doc, false)
	if kept["timing.wall_ms"] != 12.5 || kept["rows[1].timing.wall_ms"] != 3.0 {
		t.Errorf("non-dropping flatten lost timing leaves: %v", kept)
	}
}

func TestLeaf(t *testing.T) {
	for in, want := range map[string]string{
		"failed":                      "failed",
		"rows[2].msgs_per_sec":        "msgs_per_sec",
		"series[0].members[1].p99_us": "p99_us",
	} {
		if got := Leaf(in); got != want {
			t.Errorf("Leaf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty series: %+v", s)
	}
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary wrong: %+v", s)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("population std = %v, want 2", s.Std)
	}
}
