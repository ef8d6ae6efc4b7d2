package profile

// Abstract instruction costs per code path. Units are "abstract x86
// instructions": the constants for the generic deform loop and the GCL bee
// are calibrated against the paper's hand count for the 9-attribute TPC-H
// orders relation (≈340 generic vs. ≈146 specialized instructions per
// tuple, §II), and the background executor/storage costs against the
// paper's whole-query callgrind totals for `select o_comment from orders`
// (3.447B instructions over 1.5M tuples ≈ 2300 instructions per tuple).
// All remaining experiment numbers follow from which paths execute and how
// often; nothing else is fitted. See DESIGN.md §5.
const (
	// --- Generic slot_deform_tuple (Listing 1 of the paper) ---

	// DeformBase: function prologue, slot/header setup, loop setup.
	DeformBase = 25
	// DeformFixedAttr: one iteration of the generic loop for a
	// fixed-length attribute (loop bookkeeping, thisatt load, null-bitmap
	// branch, attcacheoff test, typed fetch dispatch, offset advance).
	DeformFixedAttr = 33
	// DeformVarlenaAttr: one iteration for a variable-length attribute
	// (alignment-pointer logic, VARSIZE read, slow-path flagging).
	DeformVarlenaAttr = 55
	// DeformSlowAttr: extra cost per attribute once the "slow" flag is
	// set (no cached offsets; alignment recomputed every time).
	DeformSlowAttr = 14
	// DeformNullBitmapCheck: per-attribute att_isnull test when the tuple
	// has a null bitmap.
	DeformNullBitmapCheck = 6
	// DeformNullAttr: short-circuit path for a null attribute.
	DeformNullAttr = 12

	// --- GCL bee routine (Listing 2 of the paper) ---

	// GCLBase: bee-call overhead plus the single wide isnull clear
	// ("(long*)isnull = 0").
	GCLBase = 21
	// GCLFixedAttr: straight-line load+store with a baked constant offset.
	GCLFixedAttr = 12
	// GCLVarlenaAttr: specialized varlena extraction (alignment test with
	// baked mask, VARSIZE advance).
	GCLVarlenaAttr = 34
	// GCLHoleAttr: filling one value from the tuple bee's data section
	// (one indexed load from the bee data section, one store).
	GCLHoleAttr = 10

	// --- Generic heap_fill_tuple ---

	// FillBase: prologue, header construction, bitmap sizing.
	FillBase = 30
	// FillFixedAttr: one generic fill iteration for a fixed-length
	// attribute (alignment arithmetic, length dispatch, store).
	FillFixedAttr = 31
	// FillVarlenaAttr: one generic fill iteration for a varlena attribute.
	FillVarlenaAttr = 52
	// FillNullableAttr: extra per-attribute cost maintaining the bitmap.
	FillNullableAttr = 7

	// --- SCL bee routine ---

	// SCLBase: bee-call overhead plus one-shot header write.
	SCLBase = 18
	// SCLFixedAttr: straight-line store with baked offset.
	SCLFixedAttr = 11
	// SCLVarlenaAttr: specialized varlena append.
	SCLVarlenaAttr = 30
	// SCLHoleAttr: dictionary-id resolution for a specialized attribute
	// (probe handled by the bee module; here just the skip).
	SCLHoleAttr = 9

	// --- Tuple-bee maintenance (charged to CompBee) ---

	// BeeDictProbe: memcmp-style probe of the ≤256-entry value dictionary
	// per specialized attribute on insert.
	BeeDictProbe = 24
	// BeeDictInsert: admitting a new value into a data section
	// (slab-allocated copy).
	BeeDictInsert = 95

	// --- Interpreted expression evaluation (FuncExprState analogue) ---

	// ExprNode: evaluating one interpreted expression node (function-call
	// dispatch, operand slot loads, type dispatch, result store).
	ExprNode = 44
	// ExprConst / ExprVar: leaf fetches.
	ExprConst = 8
	ExprVar   = 14

	// --- EVP bee routine ---

	// EVPBase: one specialized predicate invocation (direct call, baked
	// attribute offsets and constants).
	EVPBase = 13
	// EVPTerm: one comparison term inside the specialized predicate.
	EVPTerm = 7

	// --- EVA bee routine: the vector form ---
	//
	// A typed aggregate argument is a tree of vector kernels, one loop per
	// node (core/vec.go). The bee call costs EVPBase once per batch, and
	// a boxed argument EVPBase + EVPTerm per term per row, as a predicate.
	// A row the drain builds from a column batch's vectors for a reader
	// that needs rows is not charged: it is the datum store the column
	// deform did not make.

	// EVAVecElem: one element of one kernel node (Arith, Neg, widening,
	// date ± interval, EXTRACT): an operand load or two, the operation, a
	// store and the loop step. A column leaf of a column batch costs
	// nothing: the kernel reads the scan's vector.
	EVAVecElem = 5
	// EVAVecGather: reading one row's value of a column leaf out of the
	// batch's rows — the row and datum loads, the kind guard and the store
	// into the leaf's vector — once per leaf, however often the argument
	// names it.
	EVAVecGather = 6

	// --- Generic join qualification vs. EVJ ---

	// JoinQualNode: generic per-pair join-qual evaluation overhead
	// (JoinState consultation: join type tests, attribute id loads).
	JoinQualNode = 49
	// EVJBase: specialized join-qual invocation.
	EVJBase = 15
	// EVJKey: one baked key comparison.
	EVJKey = 8

	// --- Background engine costs (identical in stock and bee builds) ---

	// PageAccess: fetching one page through the buffer manager.
	PageAccess = 1200
	// HeapNextTuple: per-tuple heap-scan bookkeeping — the line-pointer
	// fetch and liveness test, the tuple's address and length, the slot
	// plumbing that hands it on: the former 380 (line pointer plus
	// visibility) less HeapVisibility.
	HeapNextTuple = 290
	// HeapVisibility: the per-tuple visibility test, charged beside
	// HeapNextTuple only on a page whose all-visible bit is clear — as
	// PostgreSQL's page-at-a-time scan calls HeapTupleSatisfiesVisibility
	// only when PageIsAllVisible is false. Derived from that call on a
	// hint-bitted committed tuple: the snapshot-type dispatch (8), the
	// MVCC test's prologue and epilogue (15), the xmin committed and
	// frozen hint-bit tests (12), XidInMVCCSnapshot's early exit below
	// the snapshot's xmin (20), the xmax-invalid test (5), the
	// serializable-conflict check's early return (20), and here the two
	// stamp loads it replaces the infomask reads with (10): 90.
	HeapVisibility = 90
	// ExecNodeTuple: per-tuple per-executor-node iterator overhead.
	ExecNodeTuple = 260
	// ExecNodeBatch: per-batch executor-node overhead on the batch path —
	// the iterator bookkeeping is paid once per page-sized batch instead
	// of once per tuple.
	ExecNodeBatch = 320
	// ProjectCol: projecting one output column.
	ProjectCol = 45
	// EmitRow: materializing one result row to the client sink.
	EmitRow = 1250
	// HashProbe / HashBuild: hash-table operations in joins and
	// aggregation, excluding the qual/key evaluation accounted above.
	HashProbe = 90
	HashBuild = 130
	// BeeIDLookup: reading a tuple's 16-bit bee ID and its entry in a
	// dense per-ID array — a bee-keyed aggregation's group number, or a
	// fused scan's verdict — two loads and a bounds test. It replaces the
	// per-row group-key evaluation, comparison and hash probe, or the hole
	// deform and comparison of a conjunct over tuple-bee columns; the
	// probe or the evaluation is paid once per ID, on its first sight.
	BeeIDLookup = 4
	// JoinFilterTest: testing one row's key against a join filter, a
	// hash join's build-key set handed to a scan under its probe side —
	// the key's load (the stored word under bees, the deformed datum's
	// under stock), the range compares and the bitmap's word and bit. It
	// is charged per test on both engines, so a rejected row's saving
	// (its deform, probe and everything above) is the same on both.
	JoinFilterTest = 8
	// SortCompare: one comparison inside a sort.
	SortCompare = 60
	// AggTransition: one aggregate-state transition of a boxed datum — a
	// value of a character or other non-numeric kind, a batch whose
	// evaluator returned a datum of another kind than the static one — or
	// of any DISTINCT aggregate's value.
	AggTransition = 85
	// AggTypedTransition: one transition of a value in a typed vector
	// (INTEGER, BIGINT, DATE, BOOLEAN or DOUBLE), whichever evaluator filled
	// it — an EVA bee's kernels or the interpreter, on both engines — in
	// place of AggTransition: the per-aggregate, per-class loop of
	// exec.foldVec, with no dispatch on the aggregate or the datum's kind.
	// The NULL-mask test (2), the row's state address (sts[bi&per][i]: the
	// mask, two bounds checks, two loads — 6), count++ (3), the sum's
	// load-add-store (3) and the loop step (2). An integral sum's second
	// add and a MIN/MAX store of a new extreme are rare or small enough to
	// leave out.
	AggTypedTransition = 16
	// IndexDescend: one B+tree descent.
	IndexDescend = 520
	// IndexEntry: comparing one leaf entry's key with a walk's bound (the
	// comparator call on the truncated key, the leaf-slot advance). A
	// walk pays it per entry it compares — the probes of the binary search
	// in its first leaf, then one per entry tested against the upper
	// bound — not per entry under the key it returns.
	IndexEntry = 30
	// InsertTuple: per-tuple heap-insert bookkeeping beyond fill.
	InsertTuple = 620
)
