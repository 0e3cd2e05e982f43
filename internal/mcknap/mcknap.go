// Package mcknap is the one multiple-choice knapsack every apportioning
// tier of the power hierarchy solves: the server's PowerAllocator (R1)
// splitting a dynamic budget across applications, the flat cluster tier
// splitting a cap across servers, and the two-tier tree's shard rollups
// and global split. Each tier prices one row of options per member —
// an integer cost in budget levels and a value — and the kernel picks
// one option per row to maximize the summed value within a level bound:
//
//	best_i[l] = max over k with Cost_k <= l of best_{i-1}[l-Cost_k] + Value_k
//
// with best_{-1} = 0 at every level, so best_i[l] is the best value
// within, not exactly at, l levels. Ties go to the lowest option index
// (strict >, ascending k): the cheapest point of a cost-sorted row. A
// -Inf value forbids an option, and a level no combination fits is
// -Inf.
package mcknap

import "math"

// Option is one choice in a row.
type Option struct {
	// Cost is the budget levels the option consumes. Costs must be
	// non-decreasing along a row: the cell stops at the first option
	// that does not fit.
	Cost int
	// Value is what choosing the option adds; -Inf forbids it.
	Value float64
}

// cell is the knapsack's one cell: the best value at level l over row
// built on the previous layer prev, and the option index achieving it
// (0 when nothing fits).
func cell(prev []float64, row []Option, l int) (bestV float64, bestK int) {
	bestV = math.Inf(-1)
	for k, o := range row {
		if o.Cost > l {
			break
		}
		if v := prev[l-o.Cost] + o.Value; v > bestV {
			bestV, bestK = v, k
		}
	}
	return bestV, bestK
}

// Table is the layered forward table: layer i holds best_i over every
// level in [0, Levels()). Because a layer depends only on its row and
// the layers below it, a caller can keep a clean prefix of rows across
// solves, Truncate at the first changed row and Push the rest, and
// Grow the level range in place; every retained value is the one a
// fresh table would compute.
//
// The zero value is an empty table over no levels. Not safe for
// concurrent use.
type Table struct {
	rows   [][]Option
	layers [][]float64
	// zero is the all-zero layer row 0 builds on.
	zero []float64
}

// Levels reports the level count every layer spans.
func (t *Table) Levels() int { return len(t.zero) }

// Truncate drops rows n and after, keeping their storage for reuse.
func (t *Table) Truncate(n int) {
	t.rows = t.rows[:n]
	t.layers = t.layers[:n]
}

// Grow extends every layer to at least levels levels, filling only the
// new columns (each reads the layer below, extended first).
func (t *Table) Grow(levels int) {
	lo := t.Levels()
	if levels <= lo {
		return
	}
	t.zero = make([]float64, levels)
	for i, row := range t.rows {
		t.layers[i] = append(t.layers[i], make([]float64, levels-lo)...)
		t.fill(i, row, lo)
	}
}

// Push appends a row and computes its layer over every level. The
// table keeps row; the caller must not modify it afterwards.
func (t *Table) Push(row []Option) {
	i := len(t.rows)
	var layer []float64
	if i < cap(t.layers) {
		layer = t.layers[:i+1][i] // a truncated row's storage
	}
	t.rows = append(t.rows, row)
	t.layers = append(t.layers, append(layer[:0], make([]float64, t.Levels())...))
	t.fill(i, row, 0)
}

// fill computes layer i's columns from lo up.
func (t *Table) fill(i int, row []Option, lo int) {
	layer, prev := t.layers[i], t.prev(i)
	for l := lo; l < len(layer); l++ {
		layer[l], _ = cell(prev, row, l)
	}
}

// prev is the layer row i builds on.
func (t *Table) prev(i int) []float64 {
	if i == 0 {
		return t.zero
	}
	return t.layers[i-1]
}

// Choose returns the table's value at level l and, unless it is -Inf
// (nothing fits), backtracks the option every row takes there into ks,
// which must hold one entry per row. Each choice is re-derived from the
// layer below with the same cell that built the table, so the split
// is the one the value was computed from.
func (t *Table) Choose(l int, ks []int) float64 {
	n := len(t.rows)
	if n == 0 {
		return 0
	}
	v := t.layers[n-1][l]
	if math.IsInf(v, -1) {
		return v
	}
	for i := n - 1; i >= 0; i-- {
		_, ks[i] = cell(t.prev(i), t.rows[i], l)
		l -= t.rows[i][ks[i]].Cost
	}
	return v
}
