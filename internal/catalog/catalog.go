// Package catalog implements the system catalog: relation schemas with the
// per-attribute storage metadata (attlen, attalign, attcacheoff,
// attnotnull) that the paper's generic tuple-deforming code consults on
// every attribute of every tuple, plus the DBA annotations that mark
// low-cardinality attributes as candidates for tuple-bee specialization.
package catalog

import (
	"fmt"
	"sync"
	"sync/atomic"

	"microspec/internal/types"
)

// RelID identifies a relation within a database.
type RelID uint32

// Attribute describes one column, including the storage metadata that the
// generic query-evaluation loop repeatedly consults and that
// micro-specialization folds into bee code as constants.
type Attribute struct {
	Name    string
	Type    types.T
	NotNull bool

	// LowCard marks the attribute as low-cardinality (≤256 distinct
	// values), the paper's annotation that enables tuple-bee
	// specialization of the attribute's values.
	LowCard bool

	// Len is the storage length in bytes (-1 for varlena) — attlen.
	Len int
	// Align is the storage alignment in bytes — attalign.
	Align int
	// CacheOff is the byte offset of this attribute within the tuple data
	// area when that offset is a schema constant (the attribute is not
	// preceded by any variable-length or nullable attribute); otherwise
	// -1. This is attcacheoff; the generic deform loop tests it before
	// falling back to alignment arithmetic.
	CacheOff int
}

// Schema is an ordered list of column definitions, the input to
// CreateRelation.
type Schema struct {
	Attrs []Attribute
}

// Col builds a column definition for Schema literals.
func Col(name string, t types.T, notNull bool) Attribute {
	return Attribute{Name: name, Type: t, NotNull: notNull}
}

// LowCardCol builds a column definition annotated as low-cardinality.
func LowCardCol(name string, t types.T, notNull bool) Attribute {
	return Attribute{Name: name, Type: t, NotNull: notNull, LowCard: true}
}

// Relation is a cataloged relation. The storage metadata of its attributes
// is finalized (Len/Align/CacheOff computed) when the relation is created.
type Relation struct {
	ID    RelID
	Name  string
	Attrs []Attribute

	// HasNullable reports whether any attribute may be null; if false the
	// stored tuples of this relation never carry a null bitmap, which is
	// the property the paper's case study exploits ("no null values are
	// allowed for this relation").
	HasNullable bool

	// PKey lists the attribute ordinals of the primary key, if declared.
	PKey []int

	// Spec describes which attributes are tuple-bee specialized out of the
	// stored tuple format. It is nil in a stock database and set by the
	// bee module when tuple bees are enabled for the relation. The storage
	// layer consults it to know which attributes are physically stored.
	Spec *SpecInfo
}

// SpecInfo records the tuple-bee specialization of a relation's storage:
// which attributes are dictionary-encoded into bee data sections (and thus
// absent from stored tuples).
type SpecInfo struct {
	// Specialized[i] is true if attribute i's value lives in the tuple
	// bee's data section rather than in the stored tuple.
	Specialized []bool
	// NumSpecialized is the count of true entries in Specialized.
	NumSpecialized int
}

// IsSpecialized reports whether attribute i is tuple-bee specialized.
func (r *Relation) IsSpecialized(i int) bool {
	return r.Spec != nil && r.Spec.Specialized[i]
}

// NumAttrs returns the attribute count (natts).
func (r *Relation) NumAttrs() int { return len(r.Attrs) }

// AttrIndex returns the ordinal of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i := range r.Attrs {
		if r.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// finalize computes the derived storage metadata for every attribute:
// attlen and attalign from the type, and attcacheoff for the fixed-offset
// prefix. An attribute has a constant offset iff no earlier attribute is
// variable-length or nullable (a null earlier attribute shifts all later
// offsets). Specialized attributes are skipped entirely: they occupy no
// storage, so they neither have an offset nor break the constancy of
// later offsets.
func (r *Relation) finalize() {
	r.HasNullable = false
	off := 0
	constant := true
	for i := range r.Attrs {
		a := &r.Attrs[i]
		a.Len = a.Type.Len()
		a.Align = a.Type.Align()
		a.CacheOff = -1
		if !a.NotNull {
			r.HasNullable = true
		}
		if r.IsSpecialized(i) {
			continue
		}
		if constant {
			off = alignUp(off, a.Align)
			a.CacheOff = off
			if a.Len > 0 {
				off += a.Len
			}
		}
		if a.Len < 0 || !a.NotNull {
			constant = false
		}
	}
}

func alignUp(off, align int) int {
	return (off + align - 1) &^ (align - 1)
}

// Catalog is the collection of relations in one database. It is
// internally synchronized: DDL may run concurrently with lookups.
type Catalog struct {
	mu     sync.RWMutex
	byName map[string]*Relation
	byID   map[RelID]*Relation
	nextID RelID

	// Lookups counts catalog consultations, the overhead the paper's
	// introduction calls out ("the catalog ... must be scanned for each
	// attribute value of the tuple"). Atomic: bumped under the read lock
	// by concurrent lookups.
	lookups atomic.Int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		byName: make(map[string]*Relation),
		byID:   make(map[RelID]*Relation),
		nextID: 1,
	}
}

// CreateRelation registers a new relation and finalizes its storage
// metadata. If spec is non-nil, the relation's stored-tuple format omits
// the specialized attributes (tuple bees enabled).
func (c *Catalog) CreateRelation(name string, schema Schema, pkey []int, spec *SpecInfo) (*Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byName[name]; ok {
		return nil, fmt.Errorf("relation %q already exists", name)
	}
	if len(schema.Attrs) == 0 {
		return nil, fmt.Errorf("relation %q must have at least one attribute", name)
	}
	seen := make(map[string]bool, len(schema.Attrs))
	for _, a := range schema.Attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation %q: empty attribute name", name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("relation %q: duplicate attribute %q", name, a.Name)
		}
		seen[a.Name] = true
	}
	if spec != nil && len(spec.Specialized) != len(schema.Attrs) {
		return nil, fmt.Errorf("relation %q: specialization mask has %d entries for %d attributes",
			name, len(spec.Specialized), len(schema.Attrs))
	}
	rel := &Relation{
		ID:    c.nextID,
		Name:  name,
		Attrs: append([]Attribute(nil), schema.Attrs...),
		PKey:  append([]int(nil), pkey...),
		Spec:  spec,
	}
	rel.finalize()
	c.nextID++
	c.byName[name] = rel
	c.byID[rel.ID] = rel
	return rel, nil
}

// DropRelation removes a relation from the catalog.
func (c *Catalog) DropRelation(name string) (*Relation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rel, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", name)
	}
	delete(c.byName, name)
	delete(c.byID, rel.ID)
	return rel, nil
}

// Lookup returns the named relation, or an error naming it.
func (c *Catalog) Lookup(name string) (*Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.lookups.Add(1)
	rel, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("relation %q does not exist", name)
	}
	return rel, nil
}

// LookupID returns the relation with the given ID, or nil.
func (c *Catalog) LookupID(id RelID) *Relation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.lookups.Add(1)
	return c.byID[id]
}

// Relations returns all relations in creation order.
func (c *Catalog) Relations() []*Relation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Relation, 0, len(c.byID))
	for id := RelID(1); id < c.nextID; id++ {
		if r, ok := c.byID[id]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Lookups returns the cumulative catalog-lookup count.
func (c *Catalog) Lookups() int64 {
	return c.lookups.Load()
}
