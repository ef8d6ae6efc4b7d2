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
	// HeapNextTuple: per-tuple heap-scan bookkeeping (line-pointer fetch,
	// visibility/slot plumbing).
	HeapNextTuple = 380
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
	// SortCompare: one comparison inside a sort.
	SortCompare = 60
	// AggTransition: one aggregate-state transition.
	AggTransition = 85
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
