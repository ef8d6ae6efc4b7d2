// Package page implements the slotted-page layout used by heap files: a
// small header, an array of line pointers growing down the page, and tuple
// bodies growing up from the end, with tuple starts 8-aligned so that the
// tuple format's intra-tuple alignment guarantees hold (see
// internal/storage/tuple).
//
// Layout:
//
//	offset 0..1   lower: end of the line-pointer array
//	offset 2..3   upper: start of the tuple area
//	offset 4..5   nslots
//	offset 6..7   checksum (CRC32c folded to 16 bits; 0 = never checksummed)
//	offset 8..15  pageLSN: WAL position of the last logged change applied
//	              to this page (0 = never logged); redo compares it against
//	              each record's LSN so replay is idempotent
//	offset 16..   line pointers, 4 bytes each: {off uint16, len uint16}
//
// A line pointer with len == 0 is dead (deleted tuple).
package page

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"microspec/internal/storage/disk"
)

const (
	headerSize  = 16
	linePtrSize = 4
)

// A Page is a PageSize byte slice interpreted in place.
type Page []byte

// Init formats p as an empty page.
func Init(p Page) {
	for i := range p[:headerSize] {
		p[i] = 0
	}
	setLower(p, headerSize)
	setUpper(p, disk.PageSize)
	setNSlots(p, 0)
}

func lower(p Page) int       { return int(binary.LittleEndian.Uint16(p[0:2])) }
func upper(p Page) int       { return int(binary.LittleEndian.Uint16(p[2:4])) }
func setLower(p Page, v int) { binary.LittleEndian.PutUint16(p[0:2], uint16(v)) }
func setUpper(p Page, v int) {
	// upper may be PageSize (8192) which overflows uint16; store v-1 is
	// fragile, so store v>>3: the tuple area start is always 8-aligned.
	binary.LittleEndian.PutUint16(p[2:4], uint16(v>>3))
}
func upperRaw(p Page) int { return int(binary.LittleEndian.Uint16(p[2:4])) << 3 }

// NumSlots returns the number of line pointers (live or dead).
func NumSlots(p Page) int { return int(binary.LittleEndian.Uint16(p[4:6])) }

// Initialized reports whether p has been formatted by Init. A freshly
// extended page that was never written back is all zeros, whose lower
// field (0) is below the header — recovery uses this to know it must
// Init a page before redoing inserts into it.
func Initialized(p Page) bool { return lower(p) >= headerSize }

// LSN returns the page's WAL position: the log offset just past the last
// logged change applied to this page (0 = never logged). Recovery skips a
// record whose LSN is ≤ the page's LSN — the change is already in the
// page image — which makes redo idempotent.
func LSN(p Page) uint64 { return binary.LittleEndian.Uint64(p[8:16]) }

// SetLSN stamps the page's WAL position. The storage layer calls it under
// the page latch, immediately after applying a logged change.
func SetLSN(p Page, lsn uint64) { binary.LittleEndian.PutUint64(p[8:16], lsn) }

func setNSlots(p Page, v int) { binary.LittleEndian.PutUint16(p[4:6], uint16(v)) }

// deadBit in the offset halfword marks a deleted slot; offsets fit in 13
// bits, so the top bit is free.
const deadBit = 0x8000

func linePtr(p Page, slot int) (off, ln int, dead bool) {
	lp := binary.LittleEndian.Uint32(p[headerSize+slot*linePtrSize:])
	return int(lp & (deadBit - 1)), int(lp >> 16), lp&deadBit != 0
}

func setLinePtr(p Page, slot, off, ln int) {
	base := headerSize + slot*linePtrSize
	binary.LittleEndian.PutUint16(p[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p[base+2:base+4], uint16(ln))
}

// FreeSpace returns the bytes available for one more tuple plus its line
// pointer, accounting for alignment slack.
func FreeSpace(p Page) int {
	free := upperRaw(p) - lower(p) - linePtrSize - 7
	if free < 0 {
		return 0
	}
	return free
}

// AddTuple stores tup in the page and returns its slot number, or ok=false
// if the page lacks space.
func AddTuple(p Page, tup []byte) (slot int, ok bool) {
	need := (len(tup) + 7) &^ 7
	newUpper := (upperRaw(p) - need) &^ 7
	if newUpper < lower(p)+linePtrSize {
		return 0, false
	}
	copy(p[newUpper:], tup)
	slot = NumSlots(p)
	setLinePtr(p, slot, newUpper, len(tup))
	setNSlots(p, slot+1)
	setLower(p, lower(p)+linePtrSize)
	setUpper(p, newUpper)
	return slot, true
}

// Tuple decodes slot's line pointer once: the stored bytes of the tuple
// there, aliasing the page, and whether it is live. A slot out of range
// holds no tuple (nil, false).
func Tuple(p Page, slot int) ([]byte, bool) {
	if uint(slot) >= uint(NumSlots(p)) {
		return nil, false
	}
	off, ln, dead := linePtr(p, slot)
	return p[off : off+ln : off+ln], !dead
}

// IsLive reports whether the slot holds a live tuple.
func IsLive(p Page, slot int) bool {
	if slot < 0 || slot >= NumSlots(p) {
		return false
	}
	_, _, dead := linePtr(p, slot)
	return !dead
}

// DeleteTuple marks a slot dead. The tuple bytes and length remain until
// the page is rewritten.
func DeleteTuple(p Page, slot int) error {
	if slot < 0 || slot >= NumSlots(p) {
		return fmt.Errorf("page: slot %d out of range", slot)
	}
	off, _, dead := linePtr(p, slot)
	if dead {
		return fmt.Errorf("page: slot %d already dead", slot)
	}
	base := headerSize + slot*linePtrSize
	binary.LittleEndian.PutUint16(p[base:base+2], uint16(off|deadBit))
	return nil
}

// --- Page checksums ---
//
// The buffer pool stamps a checksum into every page it flushes and
// verifies it on every read from disk, so corruption (torn writes, bit
// rot, injected faults) surfaces as a typed error instead of silently
// wrong rows. Like PostgreSQL's pd_checksum the stored form is 16 bits:
// CRC32c over the page with the checksum field zeroed, folded to 16 bits,
// with 0 reserved to mean "never checksummed". A page whose stored
// checksum is 0 verifies only if it is entirely zero (a freshly extended,
// never-flushed page) — any other content under a zero checksum is
// corruption.

const (
	checksumOff = 6
	checksumLen = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the page's checksum, excluding the stored checksum
// field itself. The result is never 0.
func Checksum(p Page) uint16 {
	var zeros [checksumLen]byte
	c := crc32.Update(0, castagnoli, p[:checksumOff])
	c = crc32.Update(c, castagnoli, zeros[:])
	c = crc32.Update(c, castagnoli, p[checksumOff+checksumLen:])
	sum := uint16(c>>16) ^ uint16(c)
	if sum == 0 {
		sum = 1
	}
	return sum
}

// StoredChecksum returns the checksum recorded in the page header
// (0 = never checksummed).
func StoredChecksum(p Page) uint16 {
	return binary.LittleEndian.Uint16(p[checksumOff : checksumOff+checksumLen])
}

// StampChecksum computes and stores the page's checksum; the buffer pool
// calls it immediately before every write-back.
func StampChecksum(p Page) {
	binary.LittleEndian.PutUint16(p[checksumOff:checksumOff+checksumLen], Checksum(p))
}

// VerifyChecksum checks a page read from disk. ok=false means the page
// is corrupt; stored and computed report the mismatching values.
func VerifyChecksum(p Page) (stored, computed uint16, ok bool) {
	stored = StoredChecksum(p)
	if stored == 0 {
		// Never-flushed pages exist on disk only as all-zero extents.
		for _, b := range p {
			if b != 0 {
				return 0, Checksum(p), false
			}
		}
		return 0, 0, true
	}
	computed = Checksum(p)
	return stored, computed, stored == computed
}
