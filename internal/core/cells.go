package core

import (
	"fmt"

	"graphstudy/internal/adapt"
	"graphstudy/internal/grb"
	"graphstudy/internal/lagraph"
	"graphstudy/internal/lonestar"
)

// api is the programming interface a cell is written against.
type api int

const (
	matrixAPI api = iota // LAGraph on grb, run by SS or GB
	graphAPI             // Lonestar on the Galois graph API, run by LS
)

// cellKey names one runnable (app, API, variant) of the study.
type cellKey struct {
	app     App
	api     api
	variant Variant
}

// binder is a cell's bind function: it fetches the Prepared forms the cell
// reads and returns the timed body. RunCtx calls it before the allocation
// counters and the clock start, so no form is built in the timed region. An
// incremental row fetches both its warm-path and its from-scratch operands,
// since which path runs is decided inside the clock.
type binder func(p *Prepared, spec RunSpec) timed

// timed is a cell's body: the kernel and the answer's summary and digest.
// RunCtx runs it inside the clock, after building its grb context there
// (nil for an LS cell); ctx and opt both carry the run's stop flag. It fills
// Value, Check and Rounds of the Result; RunCtx fills the rest.
type timed func(ctx *grb.Context, opt lonestar.Options) (Result, error)

// cells is the table of runnable cells, one row per (app, API, variant):
// LAGraph's model of one entry per algorithm with the execution policy
// underneath. A matrix row serves both SS and GB; spec.System picks the grb
// context. Adding a variant means adding one row.
var cells = map[cellKey]binder{
	{BFS, graphAPI, VDefault}: func(p *Prepared, spec RunSpec) timed {
		return func(_ *grb.Context, opt lonestar.Options) (Result, error) {
			return levelsAnswer(lonestar.BFS(p.G, p.Src, opt))
		}
	},
	{BFS, matrixAPI, VDefault}: matrixBFS(lagraph.BFS),
	{BFS, matrixAPI, VFused}:   matrixBFS(lagraph.FusedBFS),
	{BFS, matrixAPI, VAdaptive}: func(p *Prepared, spec RunSpec) timed {
		cfg := adaptConfig(spec)
		return matrixBFS(func(ctx *grb.Context, A *grb.Matrix[bool], src int) (*grb.Vector[int32], int, error) {
			return lagraph.AdaptiveBFS(ctx, A, src, cfg)
		})(p, spec)
	},
	{BFS, matrixAPI, VIncremental}: bindIncrementalBFS,

	{CC, graphAPI, VDefault}: func(p *Prepared, spec RunSpec) timed {
		sym := p.Sym()
		return func(_ *grb.Context, opt lonestar.Options) (Result, error) {
			labels, err := lonestar.CCAfforest(sym, opt)
			return componentsAnswer(labels, 0, err)
		}
	},
	{CC, graphAPI, VLSSV}: func(p *Prepared, spec RunSpec) timed {
		sym := p.Sym()
		return func(_ *grb.Context, opt lonestar.Options) (Result, error) {
			return componentsAnswer(lonestar.CCShiloachVishkin(sym, opt))
		}
	},
	{CC, matrixAPI, VDefault}: matrixCC(lagraph.CCFastSV),
	{CC, matrixAPI, VAdaptive}: func(p *Prepared, spec RunSpec) timed {
		cfg := adaptConfig(spec)
		return matrixCC(func(ctx *grb.Context, A *grb.Matrix[uint32]) (*grb.Vector[uint32], int, error) {
			return lagraph.AdaptiveCC(ctx, A, cfg)
		})(p, spec)
	},
	{CC, matrixAPI, VIncremental}: bindIncrementalCC,

	{KTruss, graphAPI, VDefault}: func(p *Prepared, spec RunSpec) timed {
		sym, k := p.Sym(), p.In.KTrussK()
		return func(_ *grb.Context, opt lonestar.Options) (Result, error) {
			res, err := lonestar.KTruss(sym, k, opt)
			return countAnswer("edges", res.Edges, res.Rounds, err)
		}
	},
	{KTruss, matrixAPI, VDefault}: func(p *Prepared, spec RunSpec) timed {
		A, k := p.ASymInt(), p.In.KTrussK()
		return func(ctx *grb.Context, _ lonestar.Options) (Result, error) {
			res, err := lagraph.KTruss(ctx, A, k)
			return countAnswer("edges", res.Edges, res.Rounds, err)
		}
	},

	{PR, graphAPI, VDefault}:  graphPR(false),
	{PR, graphAPI, VLSSoA}:    graphPR(true),
	{PR, matrixAPI, VDefault}: matrixPR(lagraph.PageRank),
	{PR, matrixAPI, VGBRes}:   matrixPR(lagraph.PageRankResidual),
	// The fused DAG port of the residual formulation; its digest matches
	// gb-res bit for bit (the fused differential suite).
	{PR, matrixAPI, VFused}: matrixPR(lagraph.FusedPageRank),
	// The adaptive port of the same formulation; digest-compatible with
	// gb-res under the quantized rank check.
	{PR, matrixAPI, VAdaptive}: func(p *Prepared, spec RunSpec) timed {
		cfg := adaptConfig(spec)
		return matrixPR(func(ctx *grb.Context, A *grb.Matrix[float64], opt lagraph.PageRankOptions) (*grb.Vector[float64], error) {
			return lagraph.AdaptivePageRank(ctx, A, opt, cfg)
		})(p, spec)
	},
	{PR, matrixAPI, VIncremental}: bindIncrementalPR,

	{SSSP, graphAPI, VDefault}:  graphSSSP(true),
	{SSSP, graphAPI, VLSNoTile}: graphSSSP(false),
	{SSSP, matrixAPI, VDefault}: matrixSSSP(lagraph.SSSP[uint32], lagraph.SSSP[uint64]),
	{SSSP, matrixAPI, VFused}:   matrixSSSP(lagraph.FusedSSSP[uint32], lagraph.FusedSSSP[uint64]),
	{SSSP, matrixAPI, VAdaptive}: func(p *Prepared, spec RunSpec) timed {
		cfg := adaptConfig(spec)
		return matrixSSSP(
			func(ctx *grb.Context, A *grb.Matrix[uint32], src int, delta uint32) (lagraph.SSSPResult[uint32], error) {
				return lagraph.AdaptiveSSSP(ctx, A, src, delta, cfg)
			},
			func(ctx *grb.Context, A *grb.Matrix[uint64], src int, delta uint64) (lagraph.SSSPResult[uint64], error) {
				return lagraph.AdaptiveSSSP(ctx, A, src, delta, cfg)
			})(p, spec)
	},

	{TC, graphAPI, VDefault}: func(p *Prepared, spec RunSpec) timed {
		sorted := p.SymSorted()
		return func(_ *grb.Context, opt lonestar.Options) (Result, error) {
			count, err := lonestar.TriangleCount(sorted, opt)
			return countAnswer("triangles", count, 0, err)
		}
	},
	{TC, matrixAPI, VDefault}: matrixTC((*Prepared).ASymInt, lagraph.TCSandiaDot),
	{TC, matrixAPI, VGBSort}:  matrixTC((*Prepared).ASrtInt, lagraph.TCSorted),
	{TC, matrixAPI, VGBLL}:    matrixTC((*Prepared).ASrtInt, lagraph.TCListing),
}

// apiOf maps each system to the API its cells are written against.
var apiOf = map[System]api{SS: matrixAPI, GB: matrixAPI, LS: graphAPI}

// lookupCell returns the bind function of the (app, system, variant) row,
// or nil when the table has no such row.
func lookupCell(a App, s System, v Variant) binder {
	if in, ok := apiOf[s]; ok {
		return cells[cellKey{a, in, v}]
	}
	return nil
}

// adaptConfig resolves the spec's adaptive config.
func adaptConfig(spec RunSpec) adapt.Config {
	if spec.Adapt != nil {
		return *spec.Adapt
	}
	return adapt.DefaultConfig()
}

func matrixBFS(bfs func(ctx *grb.Context, A *grb.Matrix[bool], src int) (*grb.Vector[int32], int, error)) binder {
	return func(p *Prepared, spec RunSpec) timed {
		A := p.ABool()
		return func(ctx *grb.Context, _ lonestar.Options) (Result, error) {
			dist, r, err := bfs(ctx, A, int(p.Src))
			if err != nil {
				return Result{Rounds: r}, err
			}
			return levelsAnswer(lagraph.BFSLevels(dist), r, nil)
		}
	}
}

func matrixCC(fastsv func(ctx *grb.Context, A *grb.Matrix[uint32]) (*grb.Vector[uint32], int, error)) binder {
	return func(p *Prepared, spec RunSpec) timed {
		A := p.ASymU32()
		return func(ctx *grb.Context, _ lonestar.Options) (Result, error) {
			f, r, err := fastsv(ctx, A)
			if err != nil {
				return Result{Rounds: r}, err
			}
			return componentsAnswer(lagraph.Labels(f), r, nil)
		}
	}
}

func graphPR(soa bool) binder {
	return func(p *Prepared, spec RunSpec) timed {
		return func(_ *grb.Context, opt lonestar.Options) (Result, error) {
			o := lonestar.DefaultPageRankOptions()
			o.Options = opt
			ranks, err := lonestar.PageRankResidual(p.G, o, soa)
			return ranksAnswer(ranks, o.Iterations, err)
		}
	}
}

func matrixPR(pr func(ctx *grb.Context, A *grb.Matrix[float64], opt lagraph.PageRankOptions) (*grb.Vector[float64], error)) binder {
	return func(p *Prepared, spec RunSpec) timed {
		A := p.AFloat()
		return func(ctx *grb.Context, _ lonestar.Options) (Result, error) {
			opt := lagraph.DefaultPageRankOptions()
			r, err := pr(ctx, A, opt)
			if err != nil {
				return Result{}, err
			}
			return ranksAnswer(lagraph.Ranks(r), opt.Iterations, nil)
		}
	}
}

// graphSSSP reports Lonestar sssp's applied relaxations as its rounds.
func graphSSSP(tiling bool) binder {
	return func(p *Prepared, spec RunSpec) timed {
		return func(_ *grb.Context, opt lonestar.Options) (Result, error) {
			o := lonestar.DefaultSSSPOptions()
			o.Options = opt
			o.Delta = p.In.Delta()
			o.EdgeTiling = tiling
			dist, applied, err := lonestar.SSSP(p.G, p.Src, o)
			return distsAnswer(dist, int(applied), err)
		}
	}
}

type ssspKernel[W grb.Number] func(ctx *grb.Context, A *grb.Matrix[W], src int, delta W) (lagraph.SSSPResult[W], error)

// matrixSSSP binds the 64-bit kernel on eukarya, the one input the study
// runs with 64-bit distances, and the 32-bit kernel everywhere else.
func matrixSSSP(sssp32 ssspKernel[uint32], sssp64 ssspKernel[uint64]) binder {
	return func(p *Prepared, spec RunSpec) timed {
		if p.In.BigDelta {
			return ssspOn(p.AW64(), p.Src, uint64(p.In.Delta()), sssp64)
		}
		return ssspOn(p.AW32(), p.Src, p.In.Delta(), sssp32)
	}
}

func ssspOn[W grb.Number](A *grb.Matrix[W], src uint32, delta W, sssp ssspKernel[W]) timed {
	return func(ctx *grb.Context, _ lonestar.Options) (Result, error) {
		res, err := sssp(ctx, A, int(src), delta)
		if err != nil {
			return Result{Rounds: res.Rounds}, err
		}
		return distsAnswer(lagraph.Distances(res.Dist), res.Rounds, nil)
	}
}

func matrixTC(form func(*Prepared) *grb.Matrix[int64], variant lagraph.TCVariant) binder {
	return func(p *Prepared, spec RunSpec) timed {
		A := form(p)
		return func(ctx *grb.Context, _ lonestar.Options) (Result, error) {
			count, err := lagraph.TriangleCount(ctx, A, variant)
			return countAnswer("triangles", count, 0, err)
		}
	}
}

// countAnswer reports a count (ktruss edges, triangles) as its own digest.
func countAnswer(what string, n int64, rounds int, err error) (Result, error) {
	if err != nil {
		return Result{Rounds: rounds}, err
	}
	return Result{Value: fmt.Sprintf("%s=%d", what, n), Check: uint64(n), Rounds: rounds}, nil
}
