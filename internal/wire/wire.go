// Package wire defines the microspec client/server protocol: a small
// length-prefixed binary framing with typed messages for session setup,
// ad-hoc queries, and the PREPARE/EXECUTE cycle that carries the
// prepared-statement work in internal/engine across the network.
//
// Every frame is [1-byte type][4-byte big-endian payload length][payload].
// Payloads are bounds-checked on decode: malformed input of any shape
// yields a typed *Error (never a panic and never an over-allocation), so
// a server can hand the decoder hostile bytes directly off the socket.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"microspec/internal/types"
)

// ProtocolVersion is negotiated in Hello; the server rejects mismatches.
const ProtocolVersion = 1

// MaxFrame bounds a frame payload (16 MiB). The frame reader rejects
// larger lengths before allocating, so a corrupt length prefix cannot OOM
// the server.
const MaxFrame = 16 << 20

// Type identifies a frame. Client-to-server types have the high bit
// clear; server-to-client types have it set.
type Type byte

const (
	// Client → server.
	THello     Type = 0x01 // Hello: version + credentials
	TQuery     Type = 0x02 // Query: one ad-hoc SQL statement
	TPrepare   Type = 0x03 // Prepare: name + SQL with $n placeholders
	TExecute   Type = 0x04 // Execute: name + bound parameter values
	TCloseStmt Type = 0x05 // CloseStmt: drop a prepared statement
	TSet       Type = 0x06 // Set: session-scoped setting
	TTerminate Type = 0x07 // Terminate: clean goodbye
	// TExecuteTxn fires a named transaction (PREPARE TRANSACTION,
	// registered via a TQuery frame) in one round trip: the whole
	// multi-statement unit runs server-side as a transaction bee.
	TExecuteTxn Type = 0x08

	// Server → client.
	THelloOK   Type = 0x81 // HelloOK: server accepted the session
	TRowDesc   Type = 0x82 // RowDesc: result column names/kinds
	TRow       Type = 0x83 // Row: one data row
	TDone      Type = 0x84 // Done: statement finished + row count
	TError     Type = 0x85 // Error: typed failure, session continues
	TPrepareOK Type = 0x86 // PrepareOK: statement description
)

func (t Type) String() string {
	switch t {
	case THello:
		return "Hello"
	case TQuery:
		return "Query"
	case TPrepare:
		return "Prepare"
	case TExecute:
		return "Execute"
	case TCloseStmt:
		return "CloseStmt"
	case TSet:
		return "Set"
	case TTerminate:
		return "Terminate"
	case TExecuteTxn:
		return "ExecuteTxn"
	case THelloOK:
		return "HelloOK"
	case TRowDesc:
		return "RowDesc"
	case TRow:
		return "Row"
	case TDone:
		return "Done"
	case TError:
		return "Error"
	case TPrepareOK:
		return "PrepareOK"
	default:
		return fmt.Sprintf("Type(0x%02x)", byte(t))
	}
}

// validType reports whether t is a defined frame type.
func validType(t Type) bool {
	switch t {
	case THello, TQuery, TPrepare, TExecute, TCloseStmt, TSet, TTerminate,
		TExecuteTxn, THelloOK, TRowDesc, TRow, TDone, TError, TPrepareOK:
		return true
	}
	return false
}

// ErrCode classifies protocol and server errors so clients can react
// without parsing message text.
type ErrCode string

const (
	CodeAuth        ErrCode = "auth"           // bad credentials or version
	CodeBusy        ErrCode = "server_busy"    // admission control rejected
	CodeShutdown    ErrCode = "shutting_down"  // server is draining
	CodeRecovering  ErrCode = "recovering"     // crash recovery in progress; retry
	CodeTimeout     ErrCode = "timeout"        // statement or idle deadline
	CodeMalformed   ErrCode = "malformed"      // undecodable frame
	CodeTooLarge    ErrCode = "too_large"      // frame over MaxFrame
	CodeUnknownStmt ErrCode = "unknown_stmt"   // EXECUTE of unknown name
	CodeQuery       ErrCode = "query_error"    // parse/plan/execute failure
	CodeConflict    ErrCode = "write_conflict" // first-updater-wins MVCC conflict; retry
	CodeInternal    ErrCode = "internal"       // anything else
)

// Error is the typed protocol error. It is both the decode-failure error
// returned by this package and the payload of a TError frame.
type Error struct {
	Code ErrCode
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg) }

func errMalformed(format string, args ...any) *Error {
	return &Error{Code: CodeMalformed, Msg: fmt.Sprintf(format, args...)}
}

// Frame is one decoded frame.
type Frame struct {
	Type    Type
	Payload []byte
}

// hdrLen is the frame header: the type byte and the payload length.
const hdrLen = 5

// keepPayload is the largest payload buffer a Reader keeps for reuse; a
// larger frame gets a buffer of its own, so one big request does not pin
// its size to the connection.
const keepPayload = 64 << 10

// AppendFrame appends one frame carrying an already encoded payload. Like
// every Append* form it returns a CodeTooLarge *Error when the payload
// exceeds MaxFrame; the bytes appended are then not a frame, and the
// caller drops them instead of sending.
func AppendFrame(b []byte, t Type, payload []byte) ([]byte, error) {
	e := frame(slices.Grow(b, hdrLen+len(payload)), t)
	e.b = append(e.b, payload...)
	return e.finish()
}

// WriteFrame writes one frame with one Write call. Writes need no lock:
// only a connection's own session goroutine writes to it, one reply at a
// time.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	b, err := AppendFrame(nil, t, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Reader reads frames through one buffered reader into one reused
// payload buffer.
type Reader struct {
	r   io.Reader
	hdr [hdrLen]byte
	buf []byte
}

// NewReader returns a frame reader over r, buffered, so a request costs
// one read call however many frames it carries. It may read ahead of the
// frame it returns, so all later reads from r must go through it.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next reads one frame, enforcing MaxFrame and rejecting unknown frame
// types before allocating. The payload is valid until the next call;
// every Decode* copies what it returns out of it. io.EOF is returned
// verbatim on a clean boundary so callers can distinguish hangup from
// protocol damage.
func (fr *Reader) Next() (Frame, error) {
	f, err := readFrame(fr.r, fr.hdr[:], fr.buf)
	if err == nil && cap(f.Payload) <= keepPayload {
		fr.buf = f.Payload
	}
	return f, err
}

// ReadFrame reads one frame from r into a payload of its own. It reads
// no byte past the frame, so consecutive calls may share r.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [hdrLen]byte
	return readFrame(r, hdr[:], nil)
}

// readFrame reads one frame into buf when it fits and into a new buffer
// otherwise; hdr is the caller's header scratch.
func readFrame(r io.Reader, hdr, buf []byte) (Frame, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	t := Type(hdr[0])
	if !validType(t) {
		return Frame{}, errMalformed("unknown frame type 0x%02x", hdr[0])
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return Frame{}, &Error{Code: CodeTooLarge, Msg: fmt.Sprintf("frame length %d exceeds %d", n, MaxFrame)}
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("wire: short frame body: %w", err)
	}
	return Frame{Type: t, Payload: payload}, nil
}

// --- encoding primitives ---

// enc is an append-based frame builder: frame writes the header with a
// zero length, the message's fields append the payload, and finish
// patches the length in.
type enc struct {
	b     []byte
	start int // offset of the frame's header in b
}

func frame(b []byte, t Type) enc {
	return enc{b: append(b, byte(t), 0, 0, 0, 0), start: len(b)}
}

func (e *enc) finish() ([]byte, error) {
	n := len(e.b) - e.start - hdrLen
	if n > MaxFrame {
		return e.b, &Error{Code: CodeTooLarge, Msg: fmt.Sprintf("payload %d bytes exceeds %d", n, MaxFrame)}
	}
	binary.BigEndian.PutUint32(e.b[e.start+1:], uint32(n))
	return e.b, nil
}

// payloadOf is the Encode* forms' view of a frame appended to an empty
// buffer: its payload. An encoding over MaxFrame is returned too, so
// WriteFrame reports it as it always has.
func payloadOf(b []byte, _ error) []byte { return b[hdrLen:] }

func (e *enc) u8(v byte)      { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)   { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)   { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)   { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string)   { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *enc) bytes(p []byte) { e.u32(uint32(len(p))); e.b = append(e.b, p...) }

// dec is a bounds-checked payload reader: the first short read latches
// err and every later read returns zero values, so decoders are written
// straight-line and check dec.err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = errMalformed("truncated %s at offset %d", what, d.off)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// span returns the next length-prefixed byte string. It aliases the
// payload: callers copy it before returning it.
func (d *dec) span() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail("string")
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) str() string { return string(d.span()) }

// text decodes a string datum of kind k, copying its bytes once.
func (d *dec) text(k types.Kind) types.Datum { return types.NewBytes(bytes.Clone(d.span()), k) }

// rem reports how many undecoded bytes remain — the probe optional
// trailing fields use before reading (a field added after protocol
// version 1 is present only when bytes remain).
func (d *dec) rem() int {
	if d.err != nil {
		return 0
	}
	return len(d.b) - d.off
}

// done returns the latched decode error, also rejecting trailing garbage
// (a well-formed prefix followed by junk is still a malformed frame).
func (d *dec) done(msg Type) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return errMalformed("%s: %d trailing bytes", msg, len(d.b)-d.off)
	}
	return nil
}

// --- datum encoding ---

// Datum tags on the wire. The tag is the value's kind, not the column's
// declared type: NULL is one tag regardless of type.
const (
	tagNull    = 0
	tagInt32   = 1
	tagInt64   = 2
	tagFloat64 = 3
	tagBool    = 4
	tagDate    = 5
	tagVarchar = 6
	tagChar    = 7
)

func (e *enc) datum(v types.Datum) {
	switch v.Kind() {
	case types.KindInvalid:
		e.u8(tagNull)
	case types.KindInt32:
		e.u8(tagInt32)
		e.u32(uint32(v.Int32()))
	case types.KindInt64:
		e.u8(tagInt64)
		e.u64(uint64(v.Int64()))
	case types.KindFloat64:
		e.u8(tagFloat64)
		e.u64(math.Float64bits(v.Float64()))
	case types.KindBool:
		e.u8(tagBool)
		if v.Bool() {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case types.KindDate:
		e.u8(tagDate)
		e.u32(uint32(v.DateDays()))
	case types.KindChar:
		e.u8(tagChar)
		e.bytes(v.Bytes())
	default: // Varchar and anything stringly
		e.u8(tagVarchar)
		e.bytes(v.Bytes())
	}
}

func (d *dec) datum() types.Datum {
	switch tag := d.u8(); tag {
	case tagNull:
		return types.Null
	case tagInt32:
		return types.NewInt32(int32(d.u32()))
	case tagInt64:
		return types.NewInt64(int64(d.u64()))
	case tagFloat64:
		return types.NewFloat64(math.Float64frombits(d.u64()))
	case tagBool:
		return types.NewBool(d.u8() != 0)
	case tagDate:
		return types.NewDate(int32(d.u32()))
	case tagVarchar:
		return d.text(types.KindVarchar)
	case tagChar:
		return d.text(types.KindChar)
	default:
		if d.err == nil {
			d.err = errMalformed("unknown datum tag 0x%02x at offset %d", tag, d.off-1)
		}
		return types.Null
	}
}

// KindTag maps a schema type kind to its wire tag (RowDesc column kinds).
func KindTag(k types.Kind) byte {
	switch k {
	case types.KindInt32:
		return tagInt32
	case types.KindInt64:
		return tagInt64
	case types.KindFloat64:
		return tagFloat64
	case types.KindBool:
		return tagBool
	case types.KindDate:
		return tagDate
	case types.KindChar:
		return tagChar
	default:
		return tagVarchar
	}
}
