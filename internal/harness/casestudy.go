package harness

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"microspec/internal/engine"
	"microspec/internal/profile"
	"microspec/internal/types"
)

var caseStudyExperiment = Experiment{
	Name:  "casestudy",
	Ref:   "E1: §II case study",
	Smoke: []string{"-sf", "0.002", "-runs", "1"},
	Bind: func(fs *flag.FlagSet) (any, func(io.Writer) error) {
		o := DefaultOptions()
		o.bindScale(fs)
		return &o, func(w io.Writer) error {
			res, err := RunCaseStudy(o)
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, res.Format())
			return err
		}
	},
}

// CaseStudyResult reproduces the paper's §II case study: the query
// `select o_comment from orders` on a stock vs. a bee-enabled database,
// reporting per-tuple deform instructions, whole-query instruction
// totals, and run times.
//
// The plan's scan reads o_comment alone. The generic loop still walks the
// whole prefix up to it — every attribute, o_comment being the last — so
// it pays what the paper's stock routine pays; GCL deforms o_comment
// alone (its offset is baked), which goes beyond the paper's routine. The
// paper's comparison is kept by also charging the full-width GCL routine
// over the same tuples.
type CaseStudyResult struct {
	Rows int64

	// Per-invocation deform cost (paper: ≈340 generic vs. ≈146 GCL):
	// the plan's generic deform and the paper's full-width GCL routine.
	StockDeformPerTuple float64
	BeeDeformPerTuple   float64
	// ColumnDeformPerTuple is the plan's GCL deform over the one column
	// the query reads.
	ColumnDeformPerTuple float64

	// Whole-query instruction totals (paper: 3.447B vs. 3.153B at SF 1,
	// an 8.5% reduction); FullWidthInstr is the bee plan's total had its
	// scan run the full-width GCL routine.
	StockInstr, BeeInstr, FullWidthInstr int64

	// Run times (paper: 734 ms vs. 680 ms, a 7.4% improvement).
	StockTime, BeeTime time.Duration
}

// InstrImprovement returns the whole-query instruction reduction (%).
func (r CaseStudyResult) InstrImprovement() float64 {
	return improvement(float64(r.StockInstr), float64(r.BeeInstr))
}

// FullWidthImprovement returns the reduction the full-width GCL routine
// gives (%), the paper's comparison.
func (r CaseStudyResult) FullWidthImprovement() float64 {
	return improvement(float64(r.StockInstr), float64(r.FullWidthInstr))
}

// TimeImprovement returns the run-time improvement (%).
func (r CaseStudyResult) TimeImprovement() float64 {
	return improvement(float64(r.StockTime), float64(r.BeeTime))
}

// caseStudyQuery is the paper's §II query.
const caseStudyQuery = "select o_comment from orders"

// RunCaseStudy runs the §II case study over a fresh stock/bee pair
// built by BuildTPCHPair.
func RunCaseStudy(o Options) (CaseStudyResult, error) {
	stock, bee, err := BuildTPCHPair(o)
	if err != nil {
		return CaseStudyResult{}, err
	}
	var res CaseStudyResult

	// Instruction profiles (the callgrind pass).
	sp := &profile.Counters{}
	rs, err := stock.QueryProfiled(caseStudyQuery, sp)
	if err != nil {
		return res, err
	}
	bp := &profile.Counters{}
	if _, err := bee.QueryProfiled(caseStudyQuery, bp); err != nil {
		return res, err
	}
	res.Rows = int64(len(rs.Rows))
	res.StockInstr, res.BeeInstr = sp.Total(), bp.Total()
	full, err := fullWidthDeform(bee)
	if err != nil {
		return res, err
	}
	res.FullWidthInstr = res.BeeInstr - bp.Component(profile.CompDeform) + full
	if res.Rows > 0 {
		res.StockDeformPerTuple = float64(sp.Component(profile.CompDeform)) / float64(res.Rows)
		res.BeeDeformPerTuple = float64(full) / float64(res.Rows)
		res.ColumnDeformPerTuple = float64(bp.Component(profile.CompDeform)) / float64(res.Rows)
	}

	// Wall-clock pass (profiler off), warm cache, runs interleaved.
	st, bt, err := timeBoth(stock, bee, caseStudyQuery, o.Runs, false)
	if err != nil {
		return res, err
	}
	res.StockTime = time.Duration(st * float64(time.Millisecond))
	res.BeeTime = time.Duration(bt * float64(time.Millisecond))
	return res, nil
}

// fullWidthDeform charges the relation bee's full-width GCL routine — the
// paper's, which deforms every attribute — over every orders tuple.
func fullWidthDeform(db *engine.DB) (int64, error) {
	rel, err := db.Catalog().Lookup("orders")
	if err != nil {
		return 0, err
	}
	h, err := db.HeapOf("orders")
	if err != nil {
		return 0, err
	}
	deform, err := db.Module().Deformer(rel)
	if err != nil {
		return 0, err
	}
	prof := &profile.Counters{}
	row := make([]types.Datum, len(rel.Attrs))
	sc := h.Scan(nil, nil)
	defer sc.Close()
	for {
		_, tup, ok := sc.Next()
		if !ok {
			break
		}
		deform(tup, row, len(row), prof)
	}
	return prof.Component(profile.CompDeform), sc.Err()
}

// Format renders the case study like the paper's §II narrative.
func (r CaseStudyResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Case study (§II): %s over %d orders tuples\n", caseStudyQuery, r.Rows)
	fmt.Fprintf(&b, "  deform instructions/tuple: generic %.0f vs GCL %.0f (paper: ≈340 vs ≈146)\n",
		r.StockDeformPerTuple, r.BeeDeformPerTuple)
	fmt.Fprintf(&b, "  column-list GCL (o_comment only): %.0f/tuple\n", r.ColumnDeformPerTuple)
	fmt.Fprintf(&b, "  whole-query instructions:  stock %d vs bee %d (-%.1f%%; full-width GCL -%.1f%%; paper: -8.5%%)\n",
		r.StockInstr, r.BeeInstr, r.InstrImprovement(), r.FullWidthImprovement())
	fmt.Fprintf(&b, "  run time:                  stock %v vs bee %v (-%.1f%%; paper: -7.4%%)\n",
		r.StockTime.Round(time.Microsecond), r.BeeTime.Round(time.Microsecond), r.TimeImprovement())
	return b.String()
}
