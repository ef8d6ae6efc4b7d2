package wire

import (
	"fmt"

	"microspec/internal/types"
)

// This file defines the typed messages carried in frame payloads. Each
// message has one encoder, its Append* form, which appends the whole
// frame (header and payload) to a caller's buffer; Encode* is the same
// encoder returning the payload alone. Decoders reject truncation,
// trailing garbage, and implausible element counts with *Error
// (CodeMalformed) — they are safe on arbitrary bytes — and copy every
// string and datum they return out of the payload, so a reader may reuse
// the payload buffer once the message is decoded.

// maxElems bounds decoded element counts (columns, parameters) before
// allocation; real statements are far smaller, and a corrupt count should
// not drive a huge make().
const maxElems = 1 << 16

// Hello opens a session: protocol version plus credentials. The secret
// is a shared token (the server is a benchmark harness, not a vault);
// the point is exercising the auth round-trip and its error path.
type Hello struct {
	Version uint32
	User    string
	Secret  string
}

func AppendHello(b []byte, m Hello) ([]byte, error) {
	e := frame(b, THello)
	e.u32(m.Version)
	e.str(m.User)
	e.str(m.Secret)
	return e.finish()
}

func EncodeHello(m Hello) []byte { return payloadOf(AppendHello(nil, m)) }

func DecodeHello(p []byte) (Hello, error) {
	d := dec{b: p}
	m := Hello{Version: d.u32(), User: d.str(), Secret: d.str()}
	return m, d.done(THello)
}

// HelloOK acknowledges a session.
type HelloOK struct {
	ServerVersion string
	SessionID     uint64
}

func AppendHelloOK(b []byte, m HelloOK) ([]byte, error) {
	e := frame(b, THelloOK)
	e.str(m.ServerVersion)
	e.u64(m.SessionID)
	return e.finish()
}

func EncodeHelloOK(m HelloOK) []byte { return payloadOf(AppendHelloOK(nil, m)) }

func DecodeHelloOK(p []byte) (HelloOK, error) {
	d := dec{b: p}
	m := HelloOK{ServerVersion: d.str(), SessionID: d.u64()}
	return m, d.done(THelloOK)
}

// Query runs one ad-hoc SQL statement (SELECT, DML, or DDL). Analyze
// asks for the EXPLAIN ANALYZE outline in Done.Analyze. TraceID, when
// nonzero, asks the server to record a request trace under that ID so
// the client can correlate its observed latency with the server-side
// breakdown; it is an optional trailing field — encoded only when set,
// absent in frames from older clients — so both encodings stay valid.
type Query struct {
	SQL     string
	Analyze bool
	TraceID uint64
}

func AppendQuery(b []byte, m Query) ([]byte, error) {
	e := frame(b, TQuery)
	e.u8(boolByte(m.Analyze))
	e.str(m.SQL)
	if m.TraceID != 0 {
		e.u64(m.TraceID)
	}
	return e.finish()
}

func EncodeQuery(m Query) []byte { return payloadOf(AppendQuery(nil, m)) }

func DecodeQuery(p []byte) (Query, error) {
	d := dec{b: p}
	m := Query{Analyze: d.u8() != 0, SQL: d.str()}
	if d.rem() > 0 {
		m.TraceID = d.u64()
	}
	return m, d.done(TQuery)
}

// Prepare creates a named prepared statement with $n placeholders.
type Prepare struct {
	Name string
	SQL  string
}

func AppendPrepare(b []byte, m Prepare) ([]byte, error) {
	e := frame(b, TPrepare)
	e.str(m.Name)
	e.str(m.SQL)
	return e.finish()
}

func EncodePrepare(m Prepare) []byte { return payloadOf(AppendPrepare(nil, m)) }

func DecodePrepare(p []byte) (Prepare, error) {
	d := dec{b: p}
	m := Prepare{Name: d.str(), SQL: d.str()}
	return m, d.done(TPrepare)
}

// PrepareOK describes a prepared statement: its parameter count and, for
// SELECTs, its result columns.
type PrepareOK struct {
	NumParams uint16
	Cols      []Col
}

func AppendPrepareOK(b []byte, m PrepareOK) ([]byte, error) {
	e := frame(b, TPrepareOK)
	e.u16(m.NumParams)
	e.cols(m.Cols)
	return e.finish()
}

func EncodePrepareOK(m PrepareOK) []byte { return payloadOf(AppendPrepareOK(nil, m)) }

func DecodePrepareOK(p []byte) (PrepareOK, error) {
	d := dec{b: p}
	m := PrepareOK{NumParams: d.u16(), Cols: d.cols()}
	return m, d.done(TPrepareOK)
}

// Execute binds parameters and runs a prepared statement (BIND and
// EXECUTE fused into one round trip). TraceID is the same optional
// trailing trace-correlation field as Query.TraceID.
type Execute struct {
	Name    string
	Analyze bool
	Params  []types.Datum
	TraceID uint64
}

func AppendExecute(b []byte, m Execute) ([]byte, error) {
	e := frame(b, TExecute)
	e.str(m.Name)
	e.u8(boolByte(m.Analyze))
	e.datums(m.Params)
	if m.TraceID != 0 {
		e.u64(m.TraceID)
	}
	return e.finish()
}

func EncodeExecute(m Execute) []byte { return payloadOf(AppendExecute(nil, m)) }

func DecodeExecute(p []byte) (Execute, error) {
	d := dec{b: p}
	m := Execute{Name: d.str(), Analyze: d.u8() != 0, Params: d.datums()}
	if d.rem() > 0 {
		m.TraceID = d.u64()
	}
	return m, d.done(TExecute)
}

// ExecuteTxn binds parameters and runs a named transaction (a PREPARE
// TRANSACTION unit) in one round trip: BEGIN, every body statement, and
// COMMIT are a single fused server-side execution. TraceID is the same
// optional trailing trace-correlation field as Query.TraceID.
type ExecuteTxn struct {
	Name    string
	Params  []types.Datum
	TraceID uint64
}

func AppendExecuteTxn(b []byte, m ExecuteTxn) ([]byte, error) {
	e := frame(b, TExecuteTxn)
	e.str(m.Name)
	e.datums(m.Params)
	if m.TraceID != 0 {
		e.u64(m.TraceID)
	}
	return e.finish()
}

func EncodeExecuteTxn(m ExecuteTxn) []byte { return payloadOf(AppendExecuteTxn(nil, m)) }

func DecodeExecuteTxn(p []byte) (ExecuteTxn, error) {
	d := dec{b: p}
	m := ExecuteTxn{Name: d.str(), Params: d.datums()}
	if d.rem() > 0 {
		m.TraceID = d.u64()
	}
	return m, d.done(TExecuteTxn)
}

// CloseStmt drops a named prepared statement.
type CloseStmt struct {
	Name string
}

func AppendCloseStmt(b []byte, m CloseStmt) ([]byte, error) {
	e := frame(b, TCloseStmt)
	e.str(m.Name)
	return e.finish()
}

func EncodeCloseStmt(m CloseStmt) []byte { return payloadOf(AppendCloseStmt(nil, m)) }

func DecodeCloseStmt(p []byte) (CloseStmt, error) {
	d := dec{b: p}
	m := CloseStmt{Name: d.str()}
	return m, d.done(TCloseStmt)
}

// Set changes one session-scoped setting (timeout_ms or workers).
type Set struct {
	Name  string
	Value string
}

func AppendSet(b []byte, m Set) ([]byte, error) {
	e := frame(b, TSet)
	e.str(m.Name)
	e.str(m.Value)
	return e.finish()
}

func EncodeSet(m Set) []byte { return payloadOf(AppendSet(nil, m)) }

func DecodeSet(p []byte) (Set, error) {
	d := dec{b: p}
	m := Set{Name: d.str(), Value: d.str()}
	return m, d.done(TSet)
}

// Col is one result column: name plus wire datum tag.
type Col struct {
	Name string
	Tag  byte
}

func (e *enc) cols(cols []Col) {
	e.u16(uint16(len(cols)))
	for _, c := range cols {
		e.str(c.Name)
		e.u8(c.Tag)
	}
}

func (d *dec) cols() []Col {
	n := int(d.u16())
	if d.err != nil || n == 0 {
		return nil
	}
	cols := make([]Col, 0, min(n, maxElems))
	for i := 0; i < n && d.err == nil; i++ {
		cols = append(cols, Col{Name: d.str(), Tag: d.u8()})
	}
	return cols
}

// datums writes a u16 count and the values: Execute's and ExecuteTxn's
// parameters, a Row's values.
func (e *enc) datums(vs []types.Datum) {
	e.u16(uint16(len(vs)))
	for _, v := range vs {
		e.datum(v)
	}
}

func (d *dec) datums() []types.Datum {
	n := int(d.u16())
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]types.Datum, 0, min(n, maxElems))
	for i := 0; i < n && d.err == nil; i++ {
		vs = append(vs, d.datum())
	}
	return vs
}

// RowDesc announces a result's columns before its Row frames.
type RowDesc struct {
	Cols []Col
}

func AppendRowDesc(b []byte, m RowDesc) ([]byte, error) {
	e := frame(b, TRowDesc)
	e.cols(m.Cols)
	return e.finish()
}

func EncodeRowDesc(m RowDesc) []byte { return payloadOf(AppendRowDesc(nil, m)) }

func DecodeRowDesc(p []byte) (RowDesc, error) {
	d := dec{b: p}
	m := RowDesc{Cols: d.cols()}
	return m, d.done(TRowDesc)
}

// Row is one data row.
type Row struct {
	Vals []types.Datum
}

func AppendRow(b []byte, m Row) ([]byte, error) {
	e := frame(b, TRow)
	e.datums(m.Vals)
	return e.finish()
}

func EncodeRow(m Row) []byte { return payloadOf(AppendRow(nil, m)) }

func DecodeRow(p []byte) (Row, error) {
	d := dec{b: p}
	m := Row{Vals: d.datums()}
	return m, d.done(TRow)
}

// Done ends a statement's response: the row count (affected rows for
// DML, returned rows for SELECT) and the EXPLAIN ANALYZE outline when it
// was requested. TraceID echoes the server-side trace ID of the request
// (optional trailing field, present only when the request was traced) so
// the client logs the same ID the server's /traces endpoint shows.
type Done struct {
	Rows    int64
	Analyze string
	TraceID uint64
}

func AppendDone(b []byte, m Done) ([]byte, error) {
	e := frame(b, TDone)
	e.u64(uint64(m.Rows))
	e.str(m.Analyze)
	if m.TraceID != 0 {
		e.u64(m.TraceID)
	}
	return e.finish()
}

func EncodeDone(m Done) []byte { return payloadOf(AppendDone(nil, m)) }

func DecodeDone(p []byte) (Done, error) {
	d := dec{b: p}
	m := Done{Rows: int64(d.u64()), Analyze: d.str()}
	if d.rem() > 0 {
		m.TraceID = d.u64()
	}
	return m, d.done(TDone)
}

// AppendError appends a typed error frame.
func AppendError(b []byte, code ErrCode, msg string) ([]byte, error) {
	e := frame(b, TError)
	e.str(string(code))
	e.str(msg)
	return e.finish()
}

// EncodeError renders a typed error frame payload.
func EncodeError(code ErrCode, msg string) []byte { return payloadOf(AppendError(nil, code, msg)) }

// DecodeError parses a TError payload back into *Error. A payload too
// damaged to decode still comes back as an *Error (CodeMalformed), so
// the caller always has a typed error in hand.
func DecodeError(p []byte) *Error {
	d := dec{b: p}
	code := d.str()
	msg := d.str()
	if err := d.done(TError); err != nil {
		return &Error{Code: CodeMalformed, Msg: fmt.Sprintf("undecodable error frame: %v", err)}
	}
	return &Error{Code: ErrCode(code), Msg: msg}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
