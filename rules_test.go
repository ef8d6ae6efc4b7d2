package microspec_test

// TestRepoRules holds the repository to its one-mechanism-per-concern
// rules (DESIGN.md §1, "Repository rules") and its documents to the code.
// It parses every Go file once into an index of facts — identifiers,
// declarations, calls and composite literals, string literals, type-switch
// arms and comments, each with its file, enclosing function and line — and
// checks the table of rules below against it; the document checks and the
// CI-pattern check read the same index. Comments and string literals are
// no code: only the rules that read strings see them.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// place is where a fact is: a slash path from the repository root, the
// enclosing function (Name or Recv.Name, empty outside one) and the line.
type place struct {
	file, fn string
	line     int
}

type index struct {
	fset  *token.FileSet
	facts map[string]map[string][]place // kind → text → places
	// declared holds, for every declared name, "name", "dir name",
	// "Owner.name" for a method, field or interface method, and
	// "type name" or "field name" (a field or a constant or variable).
	declared map[string]bool
	tests    map[string][]string // dir → its Test, Benchmark and Fuzz functions
	pkgDirs  map[string]string   // internal package name → its directory
	// goDirs maps each directory holding non-test Go to whether one of
	// its files carries a "// Package <name> ..." comment.
	goDirs map[string]bool
	docs   map[string]string // Markdown, shell and YAML files by path
}

func (ix *index) add(kind, text string, at place) {
	if ix.facts[kind] == nil {
		ix.facts[kind] = map[string][]place{}
	}
	ix.facts[kind][text] = append(ix.facts[kind][text], at)
}

func loadIndex(t *testing.T) *index {
	ix := &index{fset: token.NewFileSet(), facts: map[string]map[string][]place{},
		goDirs: map[string]bool{}, docs: map[string]string{}, declared: map[string]bool{},
		tests: map[string][]string{}, pkgDirs: map[string]string{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		p = filepath.ToSlash(p)
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && !slices.Contains([]string{".", ".github", ".claude"}, p):
			return filepath.SkipDir // .git and build outputs
		case strings.HasSuffix(p, ".go"):
			return ix.parse(p)
		case strings.HasSuffix(p, ".md") || strings.HasSuffix(p, ".sh") || strings.HasSuffix(p, ".yml"):
			b, err := os.ReadFile(p)
			ix.docs[p] = string(b)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *index) parse(file string) error {
	f, err := parser.ParseFile(ix.fset, file, nil, parser.ParseComments)
	if err != nil {
		return err
	}
	dir, test := path.Dir(file), strings.HasSuffix(file, "_test.go")
	if strings.HasPrefix(dir, "internal/") {
		ix.pkgDirs[path.Base(dir)] = dir
	}
	if !test {
		ix.goDirs[dir] = ix.goDirs[dir] || strings.HasPrefix(f.Doc.Text(), "Package "+f.Name.Name+" ")
	}
	line := func(n ast.Node) int { return ix.fset.Position(n.Pos()).Line }
	for _, g := range f.Comments {
		for _, c := range g.List {
			ix.add("comment", c.Text, place{file, "", line(c)})
		}
	}
	for _, d := range f.Decls {
		fn, recv := "", ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
			if fd.Recv != nil {
				recv = baseName(fd.Recv.List[0].Type)
				fn = recv + "." + fn
			}
		}
		owner := map[ast.Node]string{}
		var stack []ast.Node
		ast.Inspect(d, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			at := place{file, fn, line(n)}
			declare := func(owner, name, class, text string) {
				for _, k := range []string{name, dir + " " + name, owner + "." + name, class + " " + name} {
					ix.declared[k] = true
				}
				ix.add("decl", text, at)
			}
			switch n := n.(type) {
			case *ast.Ident:
				ix.add("ident", n.Name, at)
			case *ast.FuncDecl:
				declare(recv, n.Name.Name, "func", fn+strings.TrimPrefix(types.ExprString(n.Type), "func"))
				if test && recv == "" && testRE.MatchString(fn) {
					ix.tests[dir] = append(ix.tests[dir], fn)
				}
			case *ast.TypeSpec:
				owner[n.Type] = n.Name.Name
				declare("", n.Name.Name, "type", n.Name.Name+" "+types.ExprString(n.Type))
			case *ast.ValueSpec:
				typ := ""
				if n.Type != nil {
					typ = " " + types.ExprString(n.Type)
				}
				for _, id := range n.Names {
					declare("", id.Name, "field", id.Name+typ)
				}
			case *ast.FuncLit:
				ix.add("decl", types.ExprString(n.Type), at)
			case *ast.StructType:
				members(owner[n], n.Fields, declare)
			case *ast.InterfaceType:
				members(owner[n], n.Methods, declare)
			case *ast.CallExpr, *ast.CompositeLit:
				ix.add("call", types.ExprString(n.(ast.Expr)), at)
			case *ast.BasicLit:
				// A string is matched with the call, key or comparison it
				// is an operand of, after "case " in a case list.
				if n.Kind != token.STRING {
					break
				}
				text := n.Value
				switch p := stack[len(stack)-1].(type) {
				case *ast.CallExpr, *ast.KeyValueExpr, *ast.BinaryExpr:
					text = types.ExprString(p.(ast.Expr))
				}
				for i := len(stack) - 1; i >= 0; i-- {
					if cc, ok := stack[i].(*ast.CaseClause); ok {
						if n.Pos() < cc.Colon {
							text = "case " + text
						}
						break
					}
				}
				ix.add("string", text, at)
			case *ast.TypeSwitchStmt:
				// An arm is its types and the selectors its body reads:
				// "case *T, *U: .Child .Name".
				for _, s := range n.Body.List {
					cc := s.(*ast.CaseClause)
					var list []string
					for _, e := range cc.List {
						list = append(list, types.ExprString(e))
					}
					arm := "case " + strings.Join(list, ", ") + ":"
					for _, st := range cc.Body {
						ast.Inspect(st, func(m ast.Node) bool {
							if s, ok := m.(*ast.SelectorExpr); ok {
								arm += " ." + s.Sel.Name
							}
							return true
						})
					}
					ix.add("arm", arm, place{file, fn, line(cc)})
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// members declares a struct's fields or an interface's methods; an
// embedded field is declared under its type's name.
func members(owner string, fl *ast.FieldList, declare func(owner, name, class, text string)) {
	for _, f := range fl.List {
		names := []string{baseName(f.Type)}
		if f.Names != nil {
			names = names[:0]
			for _, id := range f.Names {
				names = append(names, id.Name)
			}
		}
		for _, name := range names {
			declare(owner, name, "field", owner+"."+name+" "+types.ExprString(f.Type))
		}
	}
}

// baseName is the name of a receiver or embedded type: Set for
// *pkg.Set[T].
func baseName(e ast.Expr) string {
	s, _, _ := strings.Cut(types.ExprString(e), "[")
	return s[strings.LastIndexAny(s, "*.")+1:]
}

// Which files a rule reads.
const (
	nonTest = iota
	testOnly
	anyFile
)

// rule is one check of the table. Its matches are the facts of its kinds
// (space-separated) in its files whose text matches match; allow, a
// regexp over "file:fn: text", names the places a match may be. A rule
// with want > 0 wants exactly that many matches instead. A fact's text
// is an identifier's name; a declaration as "Name(params) results",
// "Recv.Name(…)", "Type <type>", "Name [type]" (a constant or variable),
// "Owner.Field <type>" or a function literal's "func(params) results"; a
// call or composite literal as go/types prints it; a string literal with
// the call, key or comparison it is an operand of, after "case " in a
// case list; an arm as "case *T, *U: .Sel .Sel" (the selectors its body
// reads).
type rule struct {
	family, kinds string // family names the mechanism the rule keeps single
	files         int
	under         string // a regexp over the file's path
	match, allow  string
	want          int
	msg           string
}

// levelLoops are the kept loops over routine levels outside the
// equivalence driver, each with why it is not a corpus entry.
var levelLoops = map[string]string{
	"internal/engine/indexreaders_test.go:TestGetByIndexAllocs":                "allocation ceiling at each level",
	"internal/engine/indexreaders_test.go:TestPreparedProbeAllocs":             "allocation ceiling at each level",
	"internal/engine/dmltarget_test.go:TestProbeKeyKindConversion":             "the scan counter of a text key, per level and index",
	"internal/engine/dmltarget_test.go:TestProbeKeyDoubleZeros":                "the index-probe counter of each zero and NaN, per level",
	"internal/engine/dmltarget_test.go:TestProbeKeyNaNOnIntegralKey":           "the probe and scan counters of a NaN key, per level",
	"internal/engine/dmltarget_test.go:TestDoubleKeyRangeScan":                 "reads through Txn.ScanIndexRange, which SQL does not reach",
	"internal/engine/subplan_test.go:TestSubplansReadTheStatementSnapshot":     "holds a transaction uncommitted across its statements",
	"internal/engine/subplan_test.go:TestHashTablesAgreeWithEquality":          "pins the plan operator of each case, per level",
	"internal/engine/orderive_test.go:TestOrDerivedRestrictionsMatchUnderived": "counts the conjuncts each plan prints, per level",
	"internal/tpcc/tpcc_test.go:TestEachTransactionType":                       "runs every transaction type at each level; compares nothing",
	"internal/engine/normalform_test.go:TestBatchPlansHoldNoRowScan":           "looks for a row scan in each level's plans; runs nothing",
}

func rules() []rule {
	var loops []string
	for at := range levelLoops {
		loops = append(loops, regexp.QuoteMeta(at))
	}
	engine, stmts := `^internal/engine/`, `^internal/(engine|tpch|tpcc)/`
	inIndex, nodes := `^internal/index/btree/|^internal/exec/index\.go:`, `\*(exec\.)?(Instrumented|InstrumentedBatch|BatchFilter|Filter|Project|Limit|Sort|Distinct|Materialize|HashAgg|HashJoin|NLJoin|Gather)`
	bee := "a bee's kind or name is spelled outside internal/core; carry the *core.Bee handle a compile returned"
	levels := "the routine level is back to independent routine switches"
	batch := "a second row/batch switch is back; Config.NoBatch is the only one"
	comparer := "a second result comparer or a replaced database pair is back; compare through the equivalence driver and engine.Rule"
	return []rule{
		{"beenames", "string", nonTest, ``, `"query/EV|"index/IDX"|(\(|Kind: *|Kind\(\) *[!=]= *)"relation"`, `^internal/core/`, 0, bee},
		{"beenames", "call", nonTest, ``, `Sprintf\("keys|\.(Bee|RestoreDemotedBee)\([^)]*(\.String\(\)|Sprintf)`, `^internal/core/`, 0, bee},
		{"beenames", "call", nonTest, `^internal/core/`, `^[^(]*\.String\(\)$`, `:(RoutineSet\.MarshalText|Module\.CacheEntries|registry\.tiers|RelationBee\.generateSource): `, 0,
			"core prints something with String() again — a query bee's name, perhaps; a query bee is named by its shape (expr.Shape), so literals share one entry"},

		{"oneagg", "ident", nonTest, ``, `^(BatchHashAgg|CompiledArg|CompiledBatchScalar|BatchScalar|vecSource|fillFrom|openStream|openBatchStream|rowCh|batchCh)$`, ``, 0,
			"a deleted aggregation loop, EVA row, boxed batch or per-row fill form, or Gather stream mode is back"},
		{"oneagg", "ident decl", nonTest, ``, `^addSum$|^(Program\.Columns|vecProg\.columns)\(`, ``, 0, "the boxed sum transition or an EVA column-batch gate is back"},
		{"oneagg", "call decl", nonTest, `^internal/plan/lower\.go$`, `Served\(`, ``, 0,
			"lowering asks whether a program is served; the column form follows from the plan and the scan routine"},
		{"oneagg", "call", nonTest, ``, `^[^(]*drainBatchesIntoAgg\(`, `^internal/exec/agg\.go:HashAgg\.Open:|^internal/exec/gather\.go:Gather\.openAgg:`, 0,
			"the aggregation drain has a caller other than HashAgg.Open and Gather.openAgg"},

		{"onecommit", "call", nonTest, engine, `^[^(]*tm\.Begin\(`, ``, 1, "want exactly one call site of tm.Begin"},
		{"onecommit", "call", nonTest, engine, `^[^(]*logCommit\(`, ``, 1, "want exactly one call site of logCommit"},
		{"onecommit", "call", nonTest, engine, `^[^(]*tm\.Commit\(`, ``, 1, "want exactly one call site of tm.Commit"},
		{"onecommit", "ident decl", nonTest, engine, `^(execInsertLatched|fusedInsert|insertColumnMap|evalConstAST|parseNum|stmtCommit|stmtAbort|runTargetLatched|execDMLLatched|execTargetLatched|runStmtAtATime|selectWithSlots|opInsert)$|^[\w.]+\(.*slots \*expr\.ParamSlots`, ``, 0,
			"a deleted function, op kind or slots parameter is declared again; run the write as an op of an engine.Txn"},

		{"onecache", "ident", anyFile, ``, `^(Placement|newPlacement|NoteParallelPlan|ParallelSafePlans|flushed|DiskEntries|DiskBytes|MemBytes|OnDisk|txnBeeSource|ResurrectTuple|OverwriteTuple)$`, ``, 0,
			"a deleted stand-in is back: the simulated placement optimizer, the bee cache's disk copy or byte sizes, a transaction bee's rendered source, or page-level undo"},
		{"onecache", "decl", anyFile, `^internal/core/`, `^(Bee\.code|CacheEntry\.Bytes|CacheStats\.Writes|registry\.writes) |^(BeeCache\.(Flush|Load)|registry\.(flush|load))\(`, ``, 0,
			"a bee cache entry holds code or its copy again; the registry entry, installed or not, is the whole bee cache"},

		{"oneform", "ident", anyFile, ``, `^FoldConst$`, ``, 0,
			"expr.FoldConst is back; constant arithmetic is folded once, by the planner's converter (plan.fold)"},
		{"oneform", "call", nonTest, ``, `\.Mirror\(`, `^internal/plan/expr\.go:`, 0,
			"a comparison is mirrored outside the converter; the planner orients each comparison once (plan.newCmp)"},
		{"oneform", "call", nonTest, `^(internal|cmd|examples)/`, `^(expr\.)?Cmp\{`, `^internal/plan/expr\.go:newCmp: `, 0,
			"a comparison is built outside the converter's constructor (plan.newCmp), which decides its operand order"},

		{"oneindex", "call", nonTest, `^internal/`, `\.(AscendPrefix|AscendRange|SearchEq)\(`, inIndex, 0, "a B+tree walk outside exec.IndexWalk"},
		{"oneindex", "call", nonTest, `^internal/`, `(\.heap|\.Heap|(^|[^\w.])h)\.(Get|Visit)\(`, inIndex, 0, "a heap fetch by TID outside exec.IndexVisit"},
		{"oneindex", "call", nonTest, `^internal/`, `[Tt]ree\.Insert\(`, `^internal/index/btree/|^internal/engine/index\.go:`, 0, "an index entry filed outside the engine write path"},
		{"oneindex", "ident decl", anyFile, ``, `^(SearchAll|InsertVersion|collectProbe|considerAt)$|^Txn\.(walk|visit|fetchRow)\(`, ``, 0, "a deleted index walker or insert is back"},
		{"oneindex", "ident", anyFile, ``, `^(datumCmp|SetComparator|CompileIndexCmp|compileIndexCmp)$`, ``, 0,
			"a datum key comparator is back; index keys are bytes compared with bytes.Compare"},

		{"onekey", "ident decl", anyFile, ``, `^(rowHash|hashFold|rowsEqual|genericHash|genericMatch|compareRows|keyChanged)$|^Datum\.Hash\(`, ``, 0,
			"a deleted key hash or comparator is back; encode the key (btree.AppendKey, core.KeyEncoder) and compare or hash the bytes"},

		{"oneknob", "decl", anyFile, ``, `^RoutineSet struct|(^|^\w*\.|\(|, )(GCL|SCL|EVP|EVJ|TupleBees|EVA|IDX)(, \w+)* bool\b`, ``, 0, levels},
		{"oneknob", "call", anyFile, ``, `(^|[^].\w])(core\.)?RoutineSet\{`, ``, 0, levels},
		{"oneknob", "ident string", anyFile, ``, `^(SetBatch|BatchEnabled)$|case[^:]*"batch"`, ``, 0, batch},
		{"oneknob", "decl", nonTest, engine, `^QueryOpts\.Batch `, ``, 0, batch},
		{"oneknob", "decl", nonTest, `^internal/advisor/`, `^Config\.\w+ `, `: Config\.(Interval|PinStreak) `, 0,
			"advisor.Config grew a field beyond Interval and PinStreak; make it a constant"},
		{"oneknob", "decl", nonTest, engine, `^Config\.StatementTimeout `, ``, 0,
			"engine.Config.StatementTimeout is back; SetStatementTimeout is the one way to set it"},

		{"onematrix", "ident", testOnly, stmts, `^(assertSameResult|datumApproxEqual|sameBits|loadPair|colDBs)$`, ``, 0, comparer},
		{"onematrix", "ident", testOnly, stmts, `^sameRows$`, `^internal/engine/equiv_test\.go:`, 0, comparer},
		{"onematrix", "ident decl", anyFile, ``, `^(resultsMatch|datumsMatch|floatClose|timeQuery|runTPCCTxnMode)$`, ``, 0,
			"a deleted second comparer, unpaired timer or TPC-C mode loop is back; time through timePaired, compare through engine.Rule, run TPC-C pairs through the pair runner"},
		{"onematrix", "call", nonTest, `^internal/harness/`, `^tpcc\.New(Driver|Executor)\(|\.(RunOne|RunN)\(|\.Run\(t\w*\)$`, `^internal/harness/(tpcc\.go|chaos\.go:runChaosTPCC|killrecover\.go:runKillRecoverTPCC):`, 0,
			"the harness drives TPC-C outside the pair runner (tpcc.go), chaos and kill-recover; run a comparison as a tpccPair"},
		{"onematrix", "call", testOnly, stmts, `^\[\]core\.RoutineSet\{`, `^internal/engine/equiv_test\.go:|^(` + strings.Join(loops, "|") + `):`, 0,
			"a loop over routine levels outside the equivalence driver; make it a corpus entry, or add it to levelLoops with its reason"},

		{"oneprog", "ident", nonTest, ``, `^(CompiledBatchArg|PartAggs|partAggs|ResidualCompiled|ResidualBee|QualCompiled|QualBee|FusedBee|compileQual|residualCalls|qualCalls|beeNs|evalSpecs|addSpecs|KeyFiltered|FusedColumns|FusedScanFilterFunc|ColumnScanFunc|EqProbeFor|collectScan|compileBee|retireBee)$`, ``, 0,
			"a deleted derived field, per-node counter, scan form or write-path copy is back; hold the core.Program on the node"},
		{"oneprog", "call", nonTest, ``, `\.(Row|Batch|BatchVec)\(\)`, `^internal/exec/caller\.go:`, 0,
			"a program's form is instantiated outside its caller (internal/exec/caller.go)"},

		{"oneselect", "call", nonTest, engine, `^[^(]*collectSafe\(`, ``, 1, "want exactly one call site of collectSafe, in DB.runPlan"},
		{"oneselect", "call", nonTest, engine, `^[^(]*quarantinePlanBees\(`, ``, 1, "want exactly one call site of quarantinePlanBees, in DB.runPlan"},
		{"oneselect", "decl", nonTest, engine, `^(\w+\.)?bind\(`, ``, 1, "want exactly one bind, the prepared core's"},
		{"oneselect", "call", nonTest, ``, `^[^(]*\.PlanSelect\(`, `^internal/engine/prepare\.go:prepared\.compileOps: |^internal/engine/engine\.go:DB\.PlanQuery: `, 0,
			"a SELECT is planned outside the prepared core (prepared.compileOps) and DB.PlanQuery; run ad hoc text as a one-call core (DB.AdHoc)"},
		{"oneselect", "call", nonTest, ``, `^[^(]*\.compileDML\(`, `^internal/engine/prepare\.go:prepared\.compileOps: `, 0,
			"a write is compiled outside the prepared core (prepared.compileOps); run ad hoc text as a one-call core (DB.AdHoc)"},
		{"oneselect", "decl", nonTest, engine, `^(\w+\.)?(replanLocked|currentTarget|observeQuery|observeStmt|observeExecute|observeExecuteStmt)\(`, ``, 0,
			"a deleted function is declared again; run the SELECT through DB.runPlan"},

		{"onetable", "decl", nonTest, engine, `^DB\.\w+ .*map\[catalog\.RelID\]`, `: DB\.tables `, 0, "DB keeps per-relation state outside its table records"},
		{"onetable", "call", nonTest, engine, `^[^(]*\.CreateRelation\(`, ``, 1, "want exactly one call site of CreateRelation, in newTableLocked"},
		{"onetable", "call", nonTest, engine, `^[^(]*\.DropRelation\(`, ``, 1, "want exactly one call site of DropRelation, in dropTableLocked"},
		{"onetable", "call", nonTest, engine, `^[^(]*heap\.Create\(`, ``, 1, "want exactly one call site of heap.Create"},
		{"onetable", "call", nonTest, engine, `^[^(]*heap\.Attach\(`, ``, 1, "want exactly one call site of heap.Attach"},
		{"onetable", "call", nonTest, engine, `^[^(]*btree\.New\(`, ``, 1, "want exactly one call site of btree.New, in newIndexLocked"},
		{"onetable", "call ident", nonTest, engine, `relHandle\{|^(relAccess|handleFor|accessFor|refreshAccessLocked|selectTables)$`, ``, 0, "a deleted side structure or function is back"},

		{"oneusage", "ident", nonTest, ``, `^(callCounters|NoteGCLCall|NoteEVPCall|NoteEVJCall|NoteEVACall|NoteDeforms|NoteFused|NoteEVA|NoteEVJ|Rebatch)$`, ``, 0,
			"a deleted usage feed is back; report a bee's use with Bee.Note on its handle at Close"},

		{"onewalk", "ident", anyFile, ``, `^(WalkGathers|ResetSubqueries|walkExprBees|maxVar2|maxVarList|convertSubst|extractAggsOnly|batchify|parallelize|batchRewrite|parRewrite|batchRegion|scanRegionOf|buildParts|InstrumentBatch)$`, ``, 0,
			"a deleted walker or rewrite pass is back"},
		{"onewalk", "arm", nonTest, ``, `[ ,]\*(sql\.)?SubstringExpr[,:]`, `^internal/sql/walk\.go:|^internal/plan/expr\.go:|^internal/plan/scope\.go:astString:`, 0,
			"a SQL expression case names SUBSTRING outside the child table (sql.Children), the converter and the printer"},
		{"onewalk", "arm", nonTest, ``, `[ ,]` + nodes + `(, [^:]*)?:.* \.(Child|Outer|Inner|Parts)( |$)`,
			`^internal/exec/walk\.go:|^internal/plan/explain\.go:|^internal/exec/instrument\.go:NodeTypeName:|^internal/plan/lower\.go:regionOf:`, 0,
			"a node-type case reads a child link outside the child table (exec.Children)"},
	}
}

// check returns what breaks r, one line each.
func (ix *index) check(r rule) []string {
	match, allow, under := regexp.MustCompile(r.match), regexp.MustCompile(r.allow), regexp.MustCompile(r.under)
	scope := map[string]bool{}
	in := func(p place) bool {
		ok, seen := scope[p.file]
		if !seen {
			test := strings.HasSuffix(p.file, "_test.go")
			ok = (r.files == anyFile || test == (r.files == testOnly)) && under.MatchString(p.file)
			scope[p.file] = ok
		}
		return ok
	}
	var hits []string
	n := 0
	for _, kind := range strings.Fields(r.kinds) {
		for text, places := range ix.facts[kind] {
			if !slices.ContainsFunc(places, in) || !match.MatchString(text) {
				continue
			}
			for _, p := range places {
				if !in(p) {
					continue
				}
				n++
				if r.want == 0 && r.allow != "" && allow.MatchString(fmt.Sprintf("%s:%s: %s", p.file, p.fn, text)) {
					continue
				}
				hit := fmt.Sprintf("%s:%d: ", p.file, p.line)
				if p.fn != "" {
					hit += "in " + p.fn + ": "
				}
				hits = append(hits, hit+text)
			}
		}
	}
	if r.want > 0 {
		if n == r.want {
			return nil
		}
		hits = append(hits, fmt.Sprintf("%d matches", n))
	}
	slices.Sort(hits)
	return hits
}

// TestRepoRules runs each family of the rule table, the document checks
// (doccheck) and the CI-pattern check (cirun) as a parallel subtest over
// one index.
func TestRepoRules(t *testing.T) {
	ix := loadIndex(t)
	families := map[string][]rule{}
	for _, r := range rules() {
		families[r.family] = append(families[r.family], r)
	}
	for family, rs := range families {
		t.Run(family, func(t *testing.T) {
			t.Parallel()
			for _, r := range rs {
				if hits := ix.check(r); len(hits) > 0 {
					t.Errorf("%s: %s\n\t%s", family, r.msg, strings.Join(hits, "\n\t"))
				}
			}
		})
	}
	t.Run("doccheck", func(t *testing.T) { t.Parallel(); ix.checkDocs(t) })
	t.Run("cirun", func(t *testing.T) { t.Parallel(); ix.checkCI(t) })
}

var (
	linkRE = regexp.MustCompile(`\[[^]\n]*\]\(([^)\n]*)\)`)
	tickRE = regexp.MustCompile("`([^`\n]*)`")
	symRE  = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$`)
	dirRE  = regexp.MustCompile(`cmd/[a-z][a-z0-9-]*|go run (-race )?\./([A-Za-z0-9_/-]+)`)
	goRE   = regexp.MustCompile(`internal/[A-Za-z0-9_/]+\.go`)
	urlRE  = regexp.MustCompile(`^(https?|mailto):`)
	testRE = regexp.MustCompile(`^(Test|Benchmark|Fuzz)`)
)

// docLines are the line ceilings of the prose (wc -l): a section added
// is paid for by one cut, and a new document needs a ceiling of its own.
var docLines = map[string]int{
	"README.md":            278,
	"DESIGN.md":            2129,
	"EXPERIMENTS.md":       1956,
	"docs/ADAPTIVE.md":     174,
	"docs/ARCHITECTURE.md": 278,
	"docs/CONCURRENCY.md":  342,
	"docs/DURABILITY.md":   220,
}

// checkDocs holds the documents to the tree: every intra-repository
// Markdown link names a file; every internal package has a package
// comment; in the prose (README, DESIGN, EXPERIMENTS, docs/) a backticked
// pkg.Name, pkg.Type.Member or Type.Member names a declaration; every
// cmd/<name> and `go run ./<path>` quoted there, in the verify skill, a
// script or the CI workflow names a directory; every internal/…/*.go
// named in that Markdown or a Go comment exists; the prose stays within
// its line ceilings (docLines); cmd/ holds at most four binaries; and no
// BENCH_*.json result file sits at the root.
func (ix *index) checkDocs(t *testing.T) {
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }
	for p, text := range ix.docs {
		prose := slices.Contains([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, p) || path.Dir(p) == "docs" && path.Ext(p) == ".md"
		quotes := prose || p == ".claude/skills/verify/SKILL.md"
		commands := quotes || p == ".github/workflows/ci.yml" || path.Dir(p) == "scripts"
		if n, ceiling := strings.Count(text, "\n"), docLines[p]; prose && n > ceiling {
			t.Errorf("doccheck: %s: %d lines, over its ceiling of %d (docLines): cut as much as you add", p, n, ceiling)
		}
		for i, line := range strings.Split(text, "\n") {
			at := fmt.Sprintf("%s:%d", p, i+1)
			for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
				file, _, _ := strings.Cut(m[1], "#")
				file, _, _ = strings.Cut(file, " ")
				if path.Ext(p) == ".md" && file != "" && !urlRE.MatchString(file) &&
					!exists(path.Join(path.Dir(p), file)) && !exists(file) {
					t.Errorf("doccheck: %s: broken link -> %s", at, m[1])
				}
			}
			for _, m := range tickRE.FindAllStringSubmatch(line, -1) {
				tok, _, _ := strings.Cut(m[1], "(")
				if prose && symRE.MatchString(tok) && !ix.resolves(tok) {
					t.Errorf("doccheck: %s: `%s` does not resolve to a declaration in the code", at, tok)
				}
			}
			for _, m := range dirRE.FindAllStringSubmatch(line, -1) {
				d := m[0]
				if m[2] != "" {
					d = m[2]
				}
				if st, err := os.Stat(d); commands && (err != nil || !st.IsDir()) {
					t.Errorf("doccheck: %s: names %s, which is not a directory", at, d)
				}
			}
			for _, f := range goRE.FindAllString(line, -1) {
				if quotes && !exists(f) {
					t.Errorf("doccheck: %s: names %s, which does not exist", at, f)
				}
			}
		}
	}
	for text, places := range ix.facts["comment"] {
		for _, f := range goRE.FindAllString(text, -1) {
			if !exists(f) {
				t.Errorf("doccheck: %s:%d: names %s, which does not exist", places[0].file, places[0].line, f)
			}
		}
	}
	for dir, documented := range ix.goDirs {
		if strings.HasPrefix(dir, "internal/") && !documented {
			t.Errorf("doccheck: %s: no '// Package %s ...' comment in any file", dir, path.Base(dir))
		}
	}
	if cmds, _ := os.ReadDir("cmd"); len(cmds) > 4 {
		t.Errorf("doccheck: cmd/ holds %d binaries, at most 4 allowed (add an experiment to internal/harness instead)", len(cmds))
	}
	if res, _ := filepath.Glob("BENCH_*.json"); len(res) > 0 {
		t.Errorf("doccheck: %v: result files are not committed at the root (regenerate with go run ./bench)", res)
	}
}

// resolves reports whether a backticked pkg.Name[.Member] or Type.Member
// names a declaration. A lower-case head that is no internal package
// (stdlib, a variable) and a file name pass.
func (ix *index) resolves(tok string) bool {
	p := strings.Split(tok, ".")
	upper := func(s string) bool { return s[0] >= 'A' && s[0] <= 'Z' }
	if !upper(p[0]) {
		dir := ix.pkgDirs[p[0]]
		return dir == "" || !upper(p[1]) || ix.declared[dir+" "+p[1]] && (len(p) == 2 || ix.member(p[1], p[2]))
	}
	return slices.Contains([]string{"md", "json", "go", "sh", "yml", "txt", "sql"}, p[1]) || ix.member(p[0], p[1])
}

// member reports whether name is a method, field or interface method of
// type a, or, when a is a field, whether name is declared at all.
func (ix *index) member(a, name string) bool {
	if ix.declared["type "+a] {
		return ix.declared[a+"."+name]
	}
	return ix.declared["field "+a] && ix.declared[name]
}

// checkCI holds every -run, -bench and -fuzz pattern of a `go test` line
// of the CI workflow to the functions of the packages it names: each
// alternative of the pattern's first element (go test splits a pattern
// at '/' into one per subtest level) must match a Test, Benchmark or Fuzz
// function (-run), a Benchmark (-bench) or a Fuzz target (-fuzz). A
// pattern that matches nothing runs nothing and passes silently. '^$'
// runs nothing on purpose.
func (ix *index) checkCI(t *testing.T) {
	const ci = ".github/workflows/ci.yml"
	kinds := map[string][]string{"-run": {"Test", "Benchmark", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
	for _, line := range strings.Split(ix.docs[ci], "\n") {
		args := strings.Fields(line)
		if !strings.Contains(line, "go test ") {
			continue
		}
		for i, flag := range args[:len(args)-1] {
			if kinds[flag] == nil {
				continue
			}
			var names []string
			for _, pkg := range args {
				if pkg == "." || strings.HasPrefix(pkg, "./") {
					for _, fn := range ix.tests[path.Clean(pkg)] {
						if slices.ContainsFunc(kinds[flag], func(k string) bool { return strings.HasPrefix(fn, k) }) {
							names = append(names, fn)
						}
					}
				}
			}
			first, _, _ := strings.Cut(strings.Trim(args[i+1], `'"`), "/")
			for _, alt := range strings.Split(first, "|") {
				if alt == "^$" {
					continue
				}
				if re, err := regexp.Compile(alt); err != nil || !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("cirun: %s: %s alternative %q names no %s in: %s", ci, flag, alt, strings.Join(kinds[flag], "/"), strings.TrimSpace(line))
				}
			}
		}
	}
}
