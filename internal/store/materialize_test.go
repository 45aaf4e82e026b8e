package store

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"graphstudy/internal/graph"
)

// materializeDeltasMap is the original MaterializeDeltas, kept as the
// reference the row-wise merge is checked against: every base edge goes
// into a hash map, the ops apply in order, and the surviving keys are
// globally sorted and rebuilt through the dedup builder.
func materializeDeltasMap(base *graph.Graph, batches []DeltaBatch) *graph.Graph {
	edges := make(map[uint64]uint32, base.NumEdges())
	key := func(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }
	for u := uint32(0); u < base.NumNodes; u++ {
		lo, hi := base.RowPtr[u], base.RowPtr[u+1]
		for e := lo; e < hi; e++ {
			w := uint32(0)
			if base.Wt != nil {
				w = base.Wt[e]
			}
			edges[key(u, base.ColIdx[e])] = w
		}
	}
	n := base.NumNodes
	for _, b := range batches {
		for _, op := range b.Ops {
			if op.Del {
				delete(edges, key(op.Src, op.Dst))
				continue
			}
			edges[key(op.Src, op.Dst)] = op.W
			if op.Src >= n {
				n = op.Src + 1
			}
			if op.Dst >= n {
				n = op.Dst + 1
			}
		}
	}
	keys := make([]uint64, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b := graph.NewBuilder(n, base.Weighted())
	b.Reserve(len(keys))
	for _, k := range keys {
		b.AddEdge(uint32(k>>32), uint32(k), edges[k])
	}
	return b.BuildDedup(graph.KeepFirst)
}

// checkMaterialize asserts the merge and the reference agree exactly, and
// that the batches the caller passed in are left untouched.
func checkMaterialize(t *testing.T, base *graph.Graph, batches []DeltaBatch) {
	t.Helper()
	var before [][]DeltaOp
	for _, b := range batches {
		before = append(before, append([]DeltaOp(nil), b.Ops...))
	}
	want := materializeDeltasMap(base, batches)
	got := MaterializeDeltas(base, batches)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge differs from the map reference:\n got  n=%d rows=%v cols=%v wt=%v\n want n=%d rows=%v cols=%v wt=%v",
			got.NumNodes, got.RowPtr, got.ColIdx, got.Wt, want.NumNodes, want.RowPtr, want.ColIdx, want.Wt)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if !reflect.DeepEqual(b.Ops, before[i]) {
			t.Fatalf("batch %d was modified", i)
		}
	}
}

func TestMaterializeDeltasMatchesMapReference(t *testing.T) {
	unweighted := func() *graph.Graph {
		return graph.FromEdges(5, [][2]uint32{{0, 1}, {0, 3}, {1, 2}, {2, 0}, {3, 3}, {4, 1}})
	}
	// A base row out of order and with a repeated edge: stored objects are
	// canonical, but a decoded GSG2 need not be; the last occurrence wins.
	raw := func() *graph.Graph {
		b := graph.NewBuilder(4, true)
		for _, e := range [][3]uint32{{0, 3, 1}, {0, 1, 2}, {0, 3, 7}, {1, 0, 4}, {2, 2, 5}} {
			b.AddEdge(e[0], e[1], e[2])
		}
		return b.Build()
	}
	// Many ops on a few edges: more than a dozen ops with equal keys is
	// where an unstable sort of the ops would lose "last op wins".
	var churn []DeltaOp
	for i := uint32(0); i < 60; i++ {
		churn = append(churn, DeltaOp{Del: i%5 == 3, Src: i % 3, Dst: (i / 3) % 2, W: 100 + i})
	}
	cases := []struct {
		name    string
		base    *graph.Graph
		batches [][]DeltaOp
	}{
		{"no batches", deltaTestBase(), nil},
		{"deletes", deltaTestBase(), [][]DeltaOp{
			{{Del: true, Src: 0, Dst: 2}, {Del: true, Src: 4, Dst: 4}},
			{{Del: true, Src: 3, Dst: 0}, {Del: true, Src: 1, Dst: 5}}, // the second is absent
		}},
		{"upserts", deltaTestBase(), [][]DeltaOp{
			{{Src: 0, Dst: 1, W: 50}, {Src: 1, Dst: 3, W: 4}, {Src: 0, Dst: 0, W: 2}},
			{{Src: 1, Dst: 3, W: 9}, {Src: 5, Dst: 5, W: 3}},
		}},
		{"re-adds", deltaTestBase(), [][]DeltaOp{
			{{Del: true, Src: 3, Dst: 0}, {Src: 3, Dst: 0, W: 11}, {Src: 2, Dst: 4, W: 1}, {Del: true, Src: 2, Dst: 4}},
			{{Del: true, Src: 0, Dst: 1}},
			{{Src: 0, Dst: 1, W: 8}},
		}},
		{"new vertices", deltaTestBase(), [][]DeltaOp{
			{{Src: 7, Dst: 0, W: 1}, {Src: 2, Dst: 9, W: 4}},
			{{Src: 12, Dst: 12, W: 6}, {Del: true, Src: 12, Dst: 12}},    // grows n even though deleted
			{{Del: true, Src: 20, Dst: 1}, {Del: true, Src: 1, Dst: 30}}, // deletes never grow n
		}},
		{"churn on few edges", deltaTestBase(), [][]DeltaOp{churn, churn[:37]}},
		{"unweighted base", unweighted(), [][]DeltaOp{
			{{Src: 0, Dst: 2, W: 9}, {Del: true, Src: 1, Dst: 2}, {Src: 6, Dst: 4}},
			{{Del: true, Src: 0, Dst: 1}, {Src: 0, Dst: 1, W: 3}},
		}},
		{"non-canonical base row", raw(), [][]DeltaOp{
			{{Src: 0, Dst: 2, W: 9}, {Src: 1, Dst: 1, W: 3}},
		}},
		{"empty base", graph.NewBuilder(0, true).Build(), [][]DeltaOp{
			{{Src: 2, Dst: 0, W: 1}, {Src: 0, Dst: 2, W: 2}},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var batches []DeltaBatch
			for i, ops := range c.batches {
				batches = append(batches, DeltaBatch{Epoch: uint64(i + 1), Ops: ops})
			}
			checkMaterialize(t, c.base, batches)
		})
	}
}

// FuzzMaterializeDeltas checks the merge against the map reference on a
// random base graph and random batches. The input is read as a stream of
// small integers: a header (node count, weightedness, edge count), the
// base edges, then ops in batches. Endpoints are drawn from a range a
// little wider than the base so ops also grow the graph.
func FuzzMaterializeDeltas(f *testing.F) {
	f.Add([]byte("\x06\x01\x05\x00\x01\x05\x01\x02\x03\x02\x02\x01\x03\x00\x02\x04\x04\x09\x00\x01\x03\x04\x01\x00\x02\x00"))
	f.Add([]byte(strings.Repeat("\x03\x07\x01\x02\x09", 12)))
	f.Add([]byte{9, 0, 20, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 255, 254, 253, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint32 {
			if len(data) == 0 {
				return 0
			}
			v := uint32(data[0])
			data = data[1:]
			return v
		}
		n := next() % 16
		weighted := next()%2 == 1
		m := int(next() % 64)
		b := graph.NewBuilder(n, weighted)
		for i := 0; i < m && n > 0; i++ {
			b.AddEdge(next()%n, next()%n, next())
		}
		base := b.BuildDedup(graph.KeepFirst)
		var batches []DeltaBatch
		for len(data) > 0 && len(batches) < 8 {
			k := int(next()%8) + 1
			ops := make([]DeltaOp, 0, k)
			for i := 0; i < k; i++ {
				ctl := next()
				ops = append(ops, DeltaOp{Del: ctl%3 == 0, Src: next() % (n + 4), Dst: next() % (n + 4), W: ctl<<8 | next()})
			}
			batches = append(batches, DeltaBatch{Epoch: uint64(len(batches) + 1), Ops: ops})
		}
		checkMaterialize(t, base, batches)
	})
}

// TestImportKeepFirstLongRow: an edge list whose first row holds more
// than a dozen entries, every destination twice with different weights,
// must keep each edge's first weight. Rows that long used to be sorted
// with an unstable sort, which reordered the duplicates.
func TestImportKeepFirstLongRow(t *testing.T) {
	var sb strings.Builder
	const dsts = 40
	for pass := uint32(0); pass < 2; pass++ {
		for i := uint32(0); i < dsts; i++ {
			v := (i*17 + 3) % dsts // scrambled destination order
			sb.WriteString(strings.Join([]string{"0", strconv.Itoa(int(v + 1)), strconv.Itoa(int(100*pass + v))}, " "))
			sb.WriteByte('\n')
		}
	}
	g, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.OutDegree(0); got != dsts {
		t.Fatalf("row 0 has %d edges after dedup, want %d", got, dsts)
	}
	for e, v := range g.OutEdges(0) {
		if want := v - 1; g.OutWeights(0)[e] != want {
			t.Fatalf("edge (0,%d) kept weight %d, want the first occurrence's %d", v, g.OutWeights(0)[e], want)
		}
	}
}
