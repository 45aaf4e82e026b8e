package main

import (
	"fmt"
	"time"

	"graphstudy/internal/core"
	"graphstudy/internal/gen"
	"graphstudy/internal/graph"
)

// scale is the one scale every benchmark input is registered at. The
// inputs are not the catalog's: they are built here from the seed, so the
// catalog's fixed-seed sizes never leak into the benchmark.
const scale = gen.ScaleBench

// inputDef is one seeded input: a generator call and the archetype check
// its measured shape must pass.
type inputDef struct {
	name      string
	archetype string // road | rmat | web
	build     func() *graph.Graph
}

// roadDef is a road-network grid: maximum degree 4 and a BFS depth in the
// hundreds, so the matrix API pays hundreds of rounds.
func roadDef(name string, side, subdiv int, seed uint64) inputDef {
	return inputDef{name, "road", func() *graph.Graph { return gen.Grid(side, side, subdiv, true, 1000, seed) }}
}

// rmatDef is a skewed-degree RMAT graph with the Graph500 parameters.
func rmatDef(name string, lgN, deg int, seed uint64) inputDef {
	return inputDef{name, "rmat", func() *graph.Graph { return gen.RMAT(lgN, deg, 0.57, 0.19, 0.19, true, 255, seed) }}
}

// webDef is a dense web crawl: mostly intra-host links, so it is rich in
// triangles (the tc/ktruss input).
func webDef(name string, pages, hosts, deg int, seed uint64) inputDef {
	return inputDef{name, "web", func() *graph.Graph { return gen.WebCrawl(pages, hosts, deg, false, true, 255, seed) }}
}

// input registers the definition as a gen.Input (the same path the dataset
// store uses for external graphs, so the source vertex and ktruss k follow
// the non-road defaults).
func (d inputDef) input() *gen.Input {
	return gen.NewExternal(d.name, true, func(gen.Scale) *graph.Graph { return d.build() })
}

// shape is an input's measured archetype.
type shape struct {
	vertices, edges uint64
	maxDeg          uint64
	depth           int // BFS levels from the study source
}

func (s shape) avgDeg() float64 { return float64(s.edges) / float64(s.vertices) }

// measureShape reads the prepared graph's size, maximum out-degree and BFS
// depth from the source vertex the study uses.
func measureShape(p *core.Prepared) shape {
	g := p.G
	return shape{
		vertices: uint64(g.NumNodes),
		edges:    g.NumEdges(),
		maxDeg:   g.MaxOutDegree(),
		depth:    bfsDepth(g, p.Src),
	}
}

// bfsDepth is the number of BFS levels reachable from src.
func bfsDepth(g *graph.Graph, src uint32) int {
	level := make([]int32, g.NumNodes)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	frontier := []uint32{src}
	depth := 0
	for len(frontier) > 0 {
		var next []uint32
		for _, u := range frontier {
			for _, v := range g.OutEdges(u) {
				if level[v] < 0 {
					level[v] = level[u] + 1
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return depth
}

// checkArchetype reports why a measured shape does not match its
// generator's archetype, or "" when it does.
func checkArchetype(arch string, s shape) string {
	switch arch {
	case "road":
		if s.maxDeg > 4 || s.depth < 100 {
			return fmt.Sprintf("road: want max degree <= 4 and BFS depth >= 100, got %d and %d", s.maxDeg, s.depth)
		}
	case "rmat":
		if float64(s.maxDeg) < 20*s.avgDeg() || s.depth > 12 {
			return fmt.Sprintf("rmat: want max degree >= 20x average and BFS depth <= 12, got %d (avg %.1f) and %d", s.maxDeg, s.avgDeg(), s.depth)
		}
	case "web":
		if s.avgDeg() < 10 {
			return fmt.Sprintf("web: want average degree >= 10, got %.1f", s.avgDeg())
		}
	}
	return ""
}

// prepared is a built and preprocessed input.
type prepared struct {
	def inputDef
	in  *gen.Input
	p   *core.Prepared
}

// generate builds each graph with its generator, dropping any cached build
// of the same name first so every call pays full set-up, and returns the
// inputs (not yet preprocessed) and the summed generator time.
func generate(defs []inputDef) ([]prepared, time.Duration) {
	var total time.Duration
	out := make([]prepared, len(defs))
	for i, d := range defs {
		core.DropPrepared(d.name, scale)
		in := d.input()
		t0 := time.Now()
		in.Build(scale)
		total += time.Since(t0)
		out[i] = prepared{def: d, in: in}
	}
	return out, total
}

// checkShapes measures every input, prints its archetype line, and records
// a problem for any input whose shape does not match its archetype.
func checkShapes(rep *report, ins []prepared) {
	for i := range ins {
		s := measureShape(ins[i].p)
		note("input %-10s %-4s vertices %d edges %d max_degree %d bfs_depth %d",
			ins[i].def.name, ins[i].def.archetype, s.vertices, s.edges, s.maxDeg, s.depth)
		if msg := checkArchetype(ins[i].def.archetype, s); msg != "" {
			rep.problem("input %s: %s", ins[i].def.name, msg)
		}
	}
}
