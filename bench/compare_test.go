package main

import (
	"strings"
	"testing"
)

// runs returns n values alternating base−d and base+d.
func runs(n int, base, d float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base - d
		if i%2 == 1 {
			out[i] = base + d
		}
	}
	return out
}

func TestJudgeAppliesTheAcceptanceRule(t *testing.T) {
	for _, c := range []struct {
		name        string
		parent, chg []float64
		lower       bool
		bound       float64
		want        string
	}{
		{"clear gain", runs(10, 100, 1), runs(10, 90, 1), true, 0.1, "improved"},
		{"gain, higher is better", runs(10, 100, 1), runs(10, 110, 1), false, 0.1, "improved"},
		{"within the parent's spread", runs(10, 100, 3), runs(10, 99, 3), true, 0.1, "unchanged"},
		{"regression past the bound", runs(10, 100, 1), runs(10, 115, 1), true, 0.1, "regressed"},
		{"worse, inside the bound", runs(10, 100, 1), runs(10, 105, 1), true, 0.1, "unchanged"},
		{"spread wider than the bound", runs(10, 100, 20), runs(10, 101, 20), true, 0.1, "unresolved"},
		{"too few pairs", runs(9, 100, 1), runs(9, 90, 1), true, 0.1, "unresolved"},
	} {
		v := judge(c.parent, c.chg, c.lower, c.bound)
		if !strings.HasPrefix(v.Finding, c.want) {
			t.Errorf("%s: %q (%+v), want %s", c.name, v.Finding, v, c.want)
		}
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	parent := runs(10, 100, 1)
	change := runs(10, 90, 1)
	// Two pairs where the change loses: 8/10 wins is not a gain.
	change[0], change[1] = 120, 120
	if v := judge(parent, change, true, 0.5); v.Finding == "improved" || v.Wins != 8 {
		t.Errorf("8/10 wins judged %q (wins %d)", v.Finding, v.Wins)
	}
	change[1] = 90
	if v := judge(parent, change, true, 0.5); v.Finding != "improved" || v.Wins != 9 {
		t.Errorf("9/10 wins judged %q (wins %d)", v.Finding, v.Wins)
	}
}
