package core

import (
	"fmt"
	"sync"

	"microspec/internal/catalog"
	"microspec/internal/profile"
	"microspec/internal/types"
)

// MaxDictValues is the per-attribute distinct-value cap for tuple-bee
// specialization; the paper checks "the few (maximally 256) possible
// values with memcmp".
const MaxDictValues = 256

// MaxCombos bounds distinct tuple bees per relation: beeID is a uint16
// and 0 is reserved for "no bee".
const MaxCombos = 1 << 16

// DataSections is a relation's clustered tuple-bee value storage: one
// dictionary per specialized attribute plus the combination table mapping
// each beeID to its attribute values. The distinct byte values live in a
// slab-allocated arena ("the slab-allocation technique is employed to
// pre-allocate the necessary memory"), so datums handed to queries alias
// stable storage.
type DataSections struct {
	rel     *catalog.Relation
	specIdx []int // attribute ordinals that are specialized, in order

	mu       sync.Mutex
	dicts    [][]types.Datum  // per specialized position: distinct values
	dictIdx  []map[string]int // per position: stored-form value → dict index
	slab     []byte           // arena for dictionary byte payloads
	comboIdx map[string]uint16
	nCombos  int
	probes   int64 // dictionary probes (one per specialized attribute per resolve)
	onNewBee func(vals []types.Datum) error

	// combos maps beeID → the specialized attribute values, indexed by
	// specialized position. It is a two-level paged table so GCL hole
	// snippets can read entries without taking the lock (the engine
	// serializes DML against queries) and empty relations cost nothing.
	combos *comboTable
}

// comboTable is a sparse beeID → values map: 256 lazily allocated pages
// of 256 entries each, covering the full uint16 beeID space.
type comboTable struct {
	pages [256]*[256][]types.Datum
}

func (c *comboTable) get(id uint16) []types.Datum {
	return c.pages[id>>8][id&0xff]
}

func (c *comboTable) set(id uint16, v []types.Datum) {
	pg := c.pages[id>>8]
	if pg == nil {
		pg = new([256][]types.Datum)
		c.pages[id>>8] = pg
	}
	pg[id&0xff] = v
}

const slabChunk = 64 * 1024

func newDataSections(rel *catalog.Relation) *DataSections {
	ds := &DataSections{
		rel:      rel,
		comboIdx: make(map[string]uint16),
		combos:   new(comboTable),
		nCombos:  1, // beeID 0 reserved
		slab:     make([]byte, 0, slabChunk),
	}
	for i := range rel.Attrs {
		if rel.IsSpecialized(i) {
			ds.specIdx = append(ds.specIdx, i)
		}
	}
	ds.dicts = make([][]types.Datum, len(ds.specIdx))
	ds.dictIdx = make([]map[string]int, len(ds.specIdx))
	for i := range ds.dictIdx {
		ds.dictIdx[i] = make(map[string]int)
	}
	return ds
}

// SpecializedAttrs returns the ordinals of the specialized attributes.
func (ds *DataSections) SpecializedAttrs() []int { return ds.specIdx }

// NumBees returns how many tuple bees exist for the relation.
func (ds *DataSections) NumBees() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.nCombos - 1
}

// Probes returns the cumulative dictionary probe count.
func (ds *DataSections) Probes() int64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.probes
}

// DictSize returns the number of distinct values for specialized position
// pos (for tests and the storage report).
func (ds *DataSections) DictSize(pos int) int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.dicts[pos])
}

// ResolveBee returns the beeID for the tuple's specialized attribute
// values, creating a new tuple bee if this combination has not been seen
// ("Tuple bees are created during the evaluation of tuple insertions and
// updates, deep within the query evaluation loop" — so this path is
// deliberately cheap: a memcmp probe per attribute plus one map lookup).
func (ds *DataSections) ResolveBee(values []types.Datum, prof *profile.Counters) (uint16, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()

	var keyBuf [16]byte
	key := keyBuf[:0]
	for pos, attIdx := range ds.specIdx {
		v := values[attIdx]
		if v.IsNull() {
			return 0, fmt.Errorf("tuple bee: null value in specialized attribute %s.%s",
				ds.rel.Name, ds.rel.Attrs[attIdx].Name)
		}
		id, err := ds.dictLookup(pos, attIdx, v, prof)
		if err != nil {
			return 0, err
		}
		key = append(key, byte(id))
	}
	if beeID, ok := ds.comboIdx[string(key)]; ok {
		return beeID, nil
	}
	if ds.nCombos >= MaxCombos {
		return 0, fmt.Errorf("tuple bee: relation %s exceeds %d tuple bees", ds.rel.Name, MaxCombos-1)
	}
	beeID := uint16(ds.nCombos)
	ds.nCombos++
	vals := make([]types.Datum, len(ds.specIdx))
	for pos := range ds.specIdx {
		vals[pos] = ds.dicts[pos][key[pos]]
	}
	ds.combos.set(beeID, vals)
	ds.comboIdx[string(key)] = beeID
	prof.Add(profile.CompBee, profile.BeeDictInsert)
	if ds.onNewBee != nil {
		if err := ds.onNewBee(vals); err != nil {
			return 0, err
		}
	}
	return beeID, nil
}

// SetOnNewBee installs fn, invoked under ds.mu whenever ResolveBee
// creates a new tuple bee, with the combo's values in specialized-position
// order. The engine uses it to append the bee-combo WAL record before any
// insert record can reference the new beeID (both happen in the caller's
// statement, in order); fn failing fails the resolve, so a bee the log
// will never know about cannot back an acknowledged tuple.
func (ds *DataSections) SetOnNewBee(fn func(vals []types.Datum) error) {
	ds.mu.Lock()
	ds.onNewBee = fn
	ds.mu.Unlock()
}

// ExportCombos returns every tuple bee's specialized-attribute values in
// beeID order (IDs 1..NumBees). Stored tuples elide these values — the
// beeID in the tuple header is meaningless without the dictionary — so
// checkpoints persist the combos and recovery replays them, in this
// order, through ReplayCombo to reassign identical IDs.
func (ds *DataSections) ExportCombos() [][]types.Datum {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make([][]types.Datum, 0, ds.nCombos-1)
	for id := 1; id < ds.nCombos; id++ {
		out = append(out, append([]types.Datum(nil), ds.combos.get(uint16(id))...))
	}
	return out
}

// ReplayCombo re-creates one tuple bee during crash recovery. Combos must
// arrive in original creation order: the resolve path assigns sequential
// IDs, and the assigned ID is checked against the expected next one so
// any divergence from the crashed instance's assignment surfaces as an
// error instead of silently mis-deforming every recovered tuple.
func (ds *DataSections) ReplayCombo(vals []types.Datum) error {
	if len(vals) != len(ds.specIdx) {
		return fmt.Errorf("tuple bee: replayed combo has %d values, relation %s specializes %d attributes",
			len(vals), ds.rel.Name, len(ds.specIdx))
	}
	ds.mu.Lock()
	want := uint16(ds.nCombos)
	ds.mu.Unlock()
	values := make([]types.Datum, len(ds.rel.Attrs))
	for pos, attIdx := range ds.specIdx {
		values[attIdx] = vals[pos]
	}
	id, err := ds.ResolveBee(values, nil)
	if err != nil {
		return err
	}
	if id != want {
		return fmt.Errorf("tuple bee: replayed combo for %s resolved to beeID %d, want %d",
			ds.rel.Name, id, want)
	}
	return nil
}

// dictLookup probes the dictionary for specialized position pos and
// admits new values into the slab. The probe is a hash lookup on the
// value's stored form (the abstract-instruction cost model still charges
// the paper's memcmp probe; the dictionary is capped at 256 values
// either way).
func (ds *DataSections) dictLookup(pos, attIdx int, v types.Datum, prof *profile.Counters) (int, error) {
	prof.Add(profile.CompBee, profile.BeeDictProbe)
	ds.probes++ // caller holds ds.mu
	a := &ds.rel.Attrs[attIdx]
	var vb []byte
	if a.Type.ByValue() {
		var kb [8]byte
		u := uint64(v.Int64())
		for i := 0; i < 8; i++ {
			kb[i] = byte(u >> (8 * i))
		}
		if i, ok := ds.dictIdx[pos][string(kb[:])]; ok {
			return i, nil
		}
		vb = kb[:]
	} else {
		// Normalize CHAR(n) to its padded stored form so "O" and "O "
		// denote the same dictionary value.
		vb = v.Bytes()
		if a.Type.Kind == types.KindChar && len(vb) < a.Type.Width {
			padded := make([]byte, a.Type.Width)
			copy(padded, vb)
			for i := len(vb); i < a.Type.Width; i++ {
				padded[i] = ' '
			}
			vb = padded
		}
		if i, ok := ds.dictIdx[pos][string(vb)]; ok {
			return i, nil
		}
	}
	dict := ds.dicts[pos]
	if len(dict) >= MaxDictValues {
		return 0, fmt.Errorf("tuple bee: attribute %s.%s exceeds %d distinct values; remove its LOWCARD annotation",
			ds.rel.Name, a.Name, MaxDictValues)
	}
	// Admit: by-value datums are stored directly; byte payloads are
	// copied into the slab so dictionary datums own stable memory.
	stored := v
	if !a.Type.ByValue() {
		b := vb // already padded to the stored-form width
		if len(ds.slab)+len(b) > cap(ds.slab) {
			grow := slabChunk
			if len(b) > grow {
				grow = len(b)
			}
			ns := make([]byte, len(ds.slab), cap(ds.slab)+grow)
			copy(ns, ds.slab)
			ds.slab = ns
		}
		start := len(ds.slab)
		ds.slab = append(ds.slab, b...)
		stored = types.NewBytes(ds.slab[start:start+len(b):start+len(b)], a.Type.Kind)
	}
	prof.Add(profile.CompBee, profile.BeeDictInsert)
	ds.dicts[pos] = append(ds.dicts[pos], stored)
	ds.dictIdx[pos][string(vb)] = len(ds.dicts[pos]) - 1
	return len(ds.dicts[pos]) - 1, nil
}

// StorageSaving reports, for the storage experiment (E9), the bytes that
// tuple-bee specialization removes from each stored tuple of the
// relation: the aligned storage of every specialized attribute.
func (ds *DataSections) StorageSaving() int {
	saved := 0
	for _, i := range ds.specIdx {
		a := &ds.rel.Attrs[i]
		saved += a.Len // fixed-length only; LOWCARD varchar would save its average
	}
	return saved
}
