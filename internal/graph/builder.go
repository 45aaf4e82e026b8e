package graph

import "sort"

// DupPolicy says how BuildDedup combines parallel edges.
type DupPolicy int

const (
	// KeepFirst keeps the weight of the duplicate edge added first (in
	// AddEdge order).
	KeepFirst DupPolicy = iota
	// MinWeight keeps the minimum weight among duplicates.
	MinWeight
	// SumWeight sums weights of duplicates.
	SumWeight
)

// Builder accumulates an edge list and converts it to CSR. It is not safe
// for concurrent use; generators that build in parallel shard into multiple
// builders and merge.
type Builder struct {
	n        uint32
	weighted bool
	src      []uint32
	dst      []uint32
	wt       []uint32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n uint32, weighted bool) *Builder {
	return &Builder{n: n, weighted: weighted}
}

// Reserve pre-allocates space for m edges.
func (b *Builder) Reserve(m int) {
	if cap(b.src) < m {
		grow := func(s []uint32) []uint32 {
			ns := make([]uint32, len(s), m)
			copy(ns, s)
			return ns
		}
		b.src = grow(b.src)
		b.dst = grow(b.dst)
		if b.weighted {
			b.wt = grow(b.wt)
		}
	}
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.src) }

// AddEdge appends a directed edge (u,v) with weight w (ignored if the
// builder is unweighted). Vertices out of range panic: generator bugs should
// fail fast.
func (b *Builder) AddEdge(u, v uint32, w uint32) {
	if u >= b.n || v >= b.n {
		panic("graph: AddEdge vertex out of range")
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	if b.weighted {
		b.wt = append(b.wt, w)
	}
}

// Build converts the accumulated edge list to a CSR graph, preserving
// duplicates and edge order within each adjacency list (stable by insertion).
func (b *Builder) Build() *Graph {
	n := int(b.n)
	m := len(b.src)
	rowPtr := make([]uint64, n+1)
	for _, u := range b.src {
		rowPtr[u+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]uint32, m)
	var wt []uint32
	if b.weighted {
		wt = make([]uint32, m)
	}
	cursor := make([]uint64, n)
	copy(cursor, rowPtr[:n])
	for e := 0; e < m; e++ {
		u := b.src[e]
		p := cursor[u]
		cursor[u] = p + 1
		colIdx[p] = b.dst[e]
		if wt != nil {
			wt[p] = b.wt[e]
		}
	}
	g := &Graph{NumNodes: b.n, RowPtr: rowPtr, ColIdx: colIdx, Wt: wt}
	return g
}

// BuildSorted converts the accumulated edge list to a CSR graph whose
// adjacency lists are sorted by destination, keeping duplicates. The sort
// is stable: parallel edges stay in insertion order. It runs as two stable
// counting-sort passes — by destination, then by source — so it costs
// O(n + m) with no comparison sort of any row.
func (b *Builder) BuildSorted() *Graph {
	n := int(b.n)
	m := len(b.src)
	// Pass 1: bucket edges by destination, keeping insertion order within a
	// bucket. Only the source and weight need storing; the destination is
	// the bucket.
	dstPtr := make([]uint64, n+1)
	for _, v := range b.dst {
		dstPtr[v+1]++
	}
	for i := 0; i < n; i++ {
		dstPtr[i+1] += dstPtr[i]
	}
	bySrc := make([]uint32, m)
	var byWt []uint32
	if b.weighted {
		byWt = make([]uint32, m)
	}
	cursor := make([]uint64, n)
	copy(cursor, dstPtr[:n])
	for e, v := range b.dst {
		p := cursor[v]
		cursor[v] = p + 1
		bySrc[p] = b.src[e]
		if byWt != nil {
			byWt[p] = b.wt[e]
		}
	}
	// Pass 2: scatter into rows in destination order, so every row comes
	// out sorted and ties keep their pass-1 (insertion) order.
	rowPtr := make([]uint64, n+1)
	for _, u := range b.src {
		rowPtr[u+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]uint32, m)
	var wt []uint32
	if b.weighted {
		wt = make([]uint32, m)
	}
	copy(cursor, rowPtr[:n])
	for v := 0; v < n; v++ {
		for p := dstPtr[v]; p < dstPtr[v+1]; p++ {
			u := bySrc[p]
			q := cursor[u]
			cursor[u] = q + 1
			colIdx[q] = uint32(v)
			if wt != nil {
				wt[q] = byWt[p]
			}
		}
	}
	return &Graph{NumNodes: b.n, RowPtr: rowPtr, ColIdx: colIdx, Wt: wt}
}

// BuildDedup builds a CSR graph with sorted adjacency lists and duplicate
// edges combined according to policy. Rows come from BuildSorted, whose
// stable sort keeps parallel edges in insertion order, so KeepFirst keeps
// the weight added first. Self-loops are preserved; callers that need them
// removed should filter before adding.
func (b *Builder) BuildDedup(policy DupPolicy) *Graph {
	g := b.BuildSorted()
	n := int(g.NumNodes)
	newRowPtr := make([]uint64, n+1)
	newCol := g.ColIdx[:0] // compact in place: write index never passes read index
	var newWt []uint32
	if g.Wt != nil {
		newWt = g.Wt[:0]
	}
	for u := 0; u < n; u++ {
		lo, hi := g.RowPtr[u], g.RowPtr[u+1]
		for e := lo; e < hi; {
			v := g.ColIdx[e]
			w := uint32(0)
			if g.Wt != nil {
				w = g.Wt[e]
			}
			j := e + 1
			for j < hi && g.ColIdx[j] == v {
				if g.Wt != nil {
					switch policy {
					case MinWeight:
						if g.Wt[j] < w {
							w = g.Wt[j]
						}
					case SumWeight:
						w += g.Wt[j]
					}
				}
				j = j + 1
			}
			newCol = append(newCol, v)
			if newWt != nil {
				newWt = append(newWt, w)
			}
			e = j
		}
		newRowPtr[u+1] = uint64(len(newCol))
	}
	out := &Graph{NumNodes: g.NumNodes, RowPtr: newRowPtr, ColIdx: newCol, Wt: nil}
	if newWt != nil {
		out.Wt = newWt
	}
	return out
}

// FromEdges is a convenience constructor for tests: it builds a deduplicated
// graph with sorted adjacency from (src,dst) pairs, unweighted.
func FromEdges(n uint32, edges [][2]uint32) *Graph {
	b := NewBuilder(n, false)
	for _, e := range edges {
		b.AddEdge(e[0], e[1], 0)
	}
	return b.BuildDedup(KeepFirst)
}

// FromWeightedEdges builds a deduplicated weighted graph from (src,dst,w)
// triples, keeping the minimum weight among duplicates.
func FromWeightedEdges(n uint32, edges [][3]uint32) *Graph {
	b := NewBuilder(n, true)
	for _, e := range edges {
		b.AddEdge(e[0], e[1], e[2])
	}
	return b.BuildDedup(MinWeight)
}

// EdgeList returns the graph's edges as (src,dst) pairs in CSR order.
// Intended for tests and small graphs.
func (g *Graph) EdgeList() [][2]uint32 {
	out := make([][2]uint32, 0, g.NumEdges())
	for u := uint32(0); u < g.NumNodes; u++ {
		for _, v := range g.OutEdges(u) {
			out = append(out, [2]uint32{u, v})
		}
	}
	return out
}

// SortedEdgeList returns the edge list sorted lexicographically, useful for
// order-insensitive comparisons in tests.
func (g *Graph) SortedEdgeList() [][2]uint32 {
	es := g.EdgeList()
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}
