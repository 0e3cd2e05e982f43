package mcknap

import (
	"math"
	"math/rand"
	"testing"
)

// randRow draws a row with non-decreasing costs, values that may be
// forbidden (-Inf), and repeated costs to exercise the tie-break.
func randRow(rng *rand.Rand) []Option {
	row := make([]Option, 1+rng.Intn(5))
	cost := rng.Intn(3)
	for k := range row {
		cost += rng.Intn(3)
		row[k] = Option{Cost: cost, Value: float64(rng.Intn(6))}
		if rng.Intn(6) == 0 {
			row[k].Value = math.Inf(-1)
		}
	}
	return row
}

// bruteForce enumerates every combination of one option per row and
// returns the best summed value within l levels (-Inf if none fits).
func bruteForce(rows [][]Option, l int) float64 {
	if len(rows) == 0 {
		return 0
	}
	best := math.Inf(-1)
	for _, o := range rows[0] {
		if o.Cost <= l {
			best = math.Max(best, o.Value+bruteForce(rows[1:], l-o.Cost))
		}
	}
	return best
}

// TestTableMatchesBruteForce checks the forward table against full
// enumeration, and that the backtracked split is feasible and worth
// exactly the table's value.
func TestTableMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		rows := make([][]Option, 1+rng.Intn(4))
		var tab Table
		tab.Grow(1 + rng.Intn(20))
		for i := range rows {
			rows[i] = randRow(rng)
			tab.Push(rows[i])
		}
		ks := make([]int, len(rows))
		for l := 0; l < tab.Levels(); l++ {
			want := bruteForce(rows, l)
			got := tab.Choose(l, ks)
			if got != want {
				t.Fatalf("trial %d level %d: table %v, brute force %v", trial, l, got, want)
			}
			if math.IsInf(got, -1) {
				continue
			}
			var cost int
			var value float64
			for i, k := range ks {
				cost += rows[i][k].Cost
				value += rows[i][k].Value
			}
			if cost > l || value != got {
				t.Fatalf("trial %d level %d: split %v costs %d for %v, table says %v", trial, l, ks, cost, value, got)
			}
		}
	}
}

// TestCellTieGoesToCheapest pins the tie-break every tier relies on.
func TestCellTieGoesToCheapest(t *testing.T) {
	row := []Option{{Cost: 0, Value: 1}, {Cost: 1, Value: 1}, {Cost: 2, Value: 2}}
	zero := make([]float64, 3)
	if v, k := cell(zero, row, 1); v != 1 || k != 0 {
		t.Fatalf("cell at level 1 = (%v, %d), want the cheaper tie (1, 0)", v, k)
	}
	if v, k := cell(zero, row, 2); v != 2 || k != 2 {
		t.Fatalf("cell at level 2 = (%v, %d), want (2, 2)", v, k)
	}
}

// TestTableIncrementalMatchesFresh drives one table through truncations,
// level growth and pushes, and holds every layer bit-identical to a
// table built fresh from the same rows over the same levels.
func TestTableIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var inc Table
	var rows [][]Option
	for step := 0; step < 300; step++ {
		keep := rng.Intn(len(rows) + 1)
		rows = rows[:keep]
		inc.Truncate(keep)
		inc.Grow(inc.Levels() + rng.Intn(4))
		for n := keep + rng.Intn(4); len(rows) < n; {
			row := randRow(rng)
			rows = append(rows, row)
			inc.Push(row)
		}
		var fresh Table
		fresh.Grow(inc.Levels())
		for _, row := range rows {
			fresh.Push(row)
		}
		if len(inc.layers) != len(fresh.layers) {
			t.Fatalf("step %d: %d layers, fresh %d", step, len(inc.layers), len(fresh.layers))
		}
		for i := range fresh.layers {
			for l, want := range fresh.layers[i] {
				if got := inc.layers[i][l]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: layer %d level %d = %v, fresh %v", step, i, l, got, want)
				}
			}
		}
	}
}
