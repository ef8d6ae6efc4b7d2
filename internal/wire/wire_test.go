package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"microspec/internal/types"
)

// readers are the two ways to read frames: ReadFrame, one allocation per
// frame and no read-ahead, and a Reader's reused buffer.
var readers = map[string]func(io.Reader) func() (Frame, error){
	"ReadFrame": func(r io.Reader) func() (Frame, error) { return func() (Frame, error) { return ReadFrame(r) } },
	"Reader":    func(r io.Reader) func() (Frame, error) { return NewReader(r).Next },
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096),
		bytes.Repeat([]byte{0xCD}, keepPayload+1), []byte("after a large frame")}
	var stream bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&stream, TQuery, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for name, reader := range readers {
		next := reader(bytes.NewReader(stream.Bytes()))
		for _, p := range payloads {
			f, err := next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if f.Type != TQuery || !bytes.Equal(f.Payload, p) {
				t.Fatalf("%s: frame mismatch: %v", name, f)
			}
		}
		if _, err := next(); err != io.EOF {
			t.Fatalf("%s: expected clean EOF, got %v", name, err)
		}
	}
}

// TestAppendForms: an Append* form appends one whole frame after what the
// buffer holds, and its payload is exactly the Encode* form's.
func TestAppendForms(t *testing.T) {
	b := []byte("prefix")
	b, err := AppendRow(b, Row{Vals: sampleDatums()})
	if err != nil {
		t.Fatal(err)
	}
	b, err = AppendDone(b, Done{Rows: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.WriteString("prefix")
	WriteFrame(&want, TRow, EncodeRow(Row{Vals: sampleDatums()}))
	WriteFrame(&want, TDone, EncodeDone(Done{Rows: 1}))
	if !bytes.Equal(b, want.Bytes()) {
		t.Fatalf("appended frames:\n got %x\nwant %x", b, want.Bytes())
	}
	var we *Error
	if _, err := AppendQuery(nil, Query{SQL: string(make([]byte, MaxFrame))}); !errors.As(err, &we) || we.Code != CodeTooLarge {
		t.Fatalf("oversized append: %v", err)
	}
}

func TestFrameLimits(t *testing.T) {
	// Oversized write is rejected with a typed error.
	big := make([]byte, MaxFrame+1)
	err := WriteFrame(io.Discard, TRow, big)
	var we *Error
	if !errors.As(err, &we) || we.Code != CodeTooLarge {
		t.Fatalf("oversized write: %v", err)
	}
	for name, reader := range readers {
		// Oversized length prefix is rejected before allocation.
		hdr := []byte{byte(TRow), 0xFF, 0xFF, 0xFF, 0xFF}
		if _, err := reader(bytes.NewReader(hdr))(); !errors.As(err, &we) || we.Code != CodeTooLarge {
			t.Fatalf("%s: oversized read: %v", name, err)
		}
		// Unknown frame type.
		if _, err := reader(bytes.NewReader([]byte{0x7F, 0, 0, 0, 0}))(); !errors.As(err, &we) || we.Code != CodeMalformed {
			t.Fatalf("%s: unknown type: %v", name, err)
		}
	}
}

// datumEq compares datums for test purposes, treating NULL as equal to
// itself (Datum.Equal follows SQL semantics where it is not).
func datumEq(a, b types.Datum) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}

func sampleDatums() []types.Datum {
	return []types.Datum{
		types.Null,
		types.NewInt32(-7),
		types.NewInt64(1 << 40),
		types.NewFloat64(3.25),
		types.NewBool(true),
		types.NewBool(false),
		types.NewDate(9862),
		types.NewString("hello world"),
		types.NewString(""),
		types.NewChar("R1  "),
	}
}

// Every message type round-trips exactly.
func TestMessageRoundTrips(t *testing.T) {
	hello := Hello{Version: ProtocolVersion, User: "bench", Secret: "s3cret"}
	if got, err := DecodeHello(EncodeHello(hello)); err != nil || got != hello {
		t.Fatalf("Hello: %v %v", got, err)
	}
	hok := HelloOK{ServerVersion: "microspec/0.5", SessionID: 42}
	if got, err := DecodeHelloOK(EncodeHelloOK(hok)); err != nil || got != hok {
		t.Fatalf("HelloOK: %v %v", got, err)
	}
	q := Query{SQL: "select 1", Analyze: true}
	if got, err := DecodeQuery(EncodeQuery(q)); err != nil || got != q {
		t.Fatalf("Query: %v %v", got, err)
	}
	pr := Prepare{Name: "q1", SQL: "select * from t where a = $1"}
	if got, err := DecodePrepare(EncodePrepare(pr)); err != nil || got != pr {
		t.Fatalf("Prepare: %v %v", got, err)
	}
	pok := PrepareOK{NumParams: 2, Cols: []Col{{Name: "a", Tag: tagInt64}, {Name: "b", Tag: tagVarchar}}}
	if got, err := DecodePrepareOK(EncodePrepareOK(pok)); err != nil || !reflect.DeepEqual(got, pok) {
		t.Fatalf("PrepareOK: %v %v", got, err)
	}
	ex := Execute{Name: "q1", Analyze: true, Params: sampleDatums()}
	got, err := DecodeExecute(EncodeExecute(ex))
	if err != nil || got.Name != ex.Name || got.Analyze != ex.Analyze || len(got.Params) != len(ex.Params) {
		t.Fatalf("Execute: %+v %v", got, err)
	}
	for i := range ex.Params {
		if !datumEq(got.Params[i], ex.Params[i]) {
			t.Fatalf("Execute param %d: %v != %v", i, got.Params[i], ex.Params[i])
		}
	}
	cs := CloseStmt{Name: "q1"}
	if got, err := DecodeCloseStmt(EncodeCloseStmt(cs)); err != nil || got != cs {
		t.Fatalf("CloseStmt: %v %v", got, err)
	}
	set := Set{Name: "timeout_ms", Value: "250"}
	if got, err := DecodeSet(EncodeSet(set)); err != nil || got != set {
		t.Fatalf("Set: %v %v", got, err)
	}
	rd := RowDesc{Cols: []Col{{Name: "n", Tag: tagInt64}}}
	if got, err := DecodeRowDesc(EncodeRowDesc(rd)); err != nil || !reflect.DeepEqual(got, rd) {
		t.Fatalf("RowDesc: %v %v", got, err)
	}
	row := Row{Vals: sampleDatums()}
	rgot, err := DecodeRow(EncodeRow(row))
	if err != nil || len(rgot.Vals) != len(row.Vals) {
		t.Fatalf("Row: %+v %v", rgot, err)
	}
	for i := range row.Vals {
		if !datumEq(rgot.Vals[i], row.Vals[i]) {
			t.Fatalf("Row val %d: %v != %v", i, rgot.Vals[i], row.Vals[i])
		}
	}
	dn := Done{Rows: -1, Analyze: "SeqScan t (actual ...)"}
	if got, err := DecodeDone(EncodeDone(dn)); err != nil || got != dn {
		t.Fatalf("Done: %v %v", got, err)
	}
}

// TestTraceIDOptionalField covers the optional trailing trace-ID field on
// Query, Execute, and Done: round-trips when set, absent bytes when zero
// (old encodings stay byte-identical), zero on decode of old frames, and
// malformed when the trailing field is truncated.
func TestTraceIDOptionalField(t *testing.T) {
	q := Query{SQL: "select 1", Analyze: true, TraceID: 0xdeadbeefcafe}
	if got, err := DecodeQuery(EncodeQuery(q)); err != nil || got != q {
		t.Fatalf("Query+trace: %+v %v", got, err)
	}
	ex := Execute{Name: "q1", TraceID: 7}
	if got, err := DecodeExecute(EncodeExecute(ex)); err != nil || got.TraceID != 7 {
		t.Fatalf("Execute+trace: %+v %v", got, err)
	}
	dn := Done{Rows: 3, Analyze: "x", TraceID: 99}
	if got, err := DecodeDone(EncodeDone(dn)); err != nil || got != dn {
		t.Fatalf("Done+trace: %+v %v", got, err)
	}

	// TraceID == 0 encodes to exactly the version-1 bytes: the field is
	// genuinely optional and old peers keep interoperating.
	plain := Query{SQL: "select 1"}
	withZero := Query{SQL: "select 1", TraceID: 0}
	if !bytes.Equal(EncodeQuery(plain), EncodeQuery(withZero)) {
		t.Fatal("TraceID=0 changed the Query encoding")
	}
	if len(EncodeQuery(q)) != len(EncodeQuery(plain))+8 {
		t.Fatal("TraceID field is not exactly 8 trailing bytes")
	}
	// An old frame (no trailing field) decodes with TraceID 0.
	if got, err := DecodeQuery(EncodeQuery(plain)); err != nil || got.TraceID != 0 {
		t.Fatalf("old Query frame: %+v %v", got, err)
	}
	// A truncated trailing field is malformed, not silently ignored.
	enc := EncodeQuery(q)
	for cut := len(enc) - 7; cut < len(enc); cut++ {
		var we *Error
		if _, err := DecodeQuery(enc[:cut]); err == nil || !errors.As(err, &we) {
			t.Fatalf("truncated trace field at %d: err = %v", cut, err)
		}
	}
}

// Golden error frame: the byte-exact wire form of a typed error, pinned
// so client and server implementations cannot drift apart silently.
func TestGoldenErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TError, EncodeError(CodeBusy, "too many connections")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	golden := []byte{
		0x85,                   // TError
		0x00, 0x00, 0x00, 0x27, // payload length 39
		0x00, 0x00, 0x00, 0x0b, // len("server_busy")
		's', 'e', 'r', 'v', 'e', 'r', '_', 'b', 'u', 's', 'y',
		0x00, 0x00, 0x00, 0x14, // len("too many connections")
		't', 'o', 'o', ' ', 'm', 'a', 'n', 'y', ' ',
		'c', 'o', 'n', 'n', 'e', 'c', 't', 'i', 'o', 'n', 's',
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("golden mismatch:\n got %#v\nwant %#v", buf.Bytes(), golden)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	we := DecodeError(f.Payload)
	if we.Code != CodeBusy || we.Msg != "too many connections" {
		t.Fatalf("decoded %+v", we)
	}
}

// TestDecodersCopyOutOfPayload pins what lets a Reader reuse its payload
// buffer: no decoded string or datum aliases the payload. Each payload is
// decoded, overwritten with 0xFF, and the value must equal a decode of an
// untouched copy.
func TestDecodersCopyOutOfPayload(t *testing.T) {
	cols := []Col{{Name: "name", Tag: tagVarchar}, {Name: "c", Tag: tagChar}}
	decoders := map[Type]struct {
		payload []byte
		decode  func([]byte) any
	}{
		THello:      {EncodeHello(Hello{Version: 1, User: "user", Secret: "secret"}), func(p []byte) any { m, _ := DecodeHello(p); return m }},
		THelloOK:    {EncodeHelloOK(HelloOK{ServerVersion: "v1", SessionID: 3}), func(p []byte) any { m, _ := DecodeHelloOK(p); return m }},
		TQuery:      {EncodeQuery(Query{SQL: "select 1"}), func(p []byte) any { m, _ := DecodeQuery(p); return m }},
		TPrepare:    {EncodePrepare(Prepare{Name: "p", SQL: "select $1"}), func(p []byte) any { m, _ := DecodePrepare(p); return m }},
		TPrepareOK:  {EncodePrepareOK(PrepareOK{NumParams: 1, Cols: cols}), func(p []byte) any { m, _ := DecodePrepareOK(p); return m }},
		TExecute:    {EncodeExecute(Execute{Name: "p", Params: sampleDatums()}), func(p []byte) any { m, _ := DecodeExecute(p); return m }},
		TExecuteTxn: {EncodeExecuteTxn(ExecuteTxn{Name: "t", Params: sampleDatums()}), func(p []byte) any { m, _ := DecodeExecuteTxn(p); return m }},
		TCloseStmt:  {EncodeCloseStmt(CloseStmt{Name: "p"}), func(p []byte) any { m, _ := DecodeCloseStmt(p); return m }},
		TSet:        {EncodeSet(Set{Name: "workers", Value: "2"}), func(p []byte) any { m, _ := DecodeSet(p); return m }},
		TRowDesc:    {EncodeRowDesc(RowDesc{Cols: cols}), func(p []byte) any { m, _ := DecodeRowDesc(p); return m }},
		TRow:        {EncodeRow(Row{Vals: sampleDatums()}), func(p []byte) any { m, _ := DecodeRow(p); return m }},
		TDone:       {EncodeDone(Done{Rows: 2, Analyze: "SeqScan kv"}), func(p []byte) any { m, _ := DecodeDone(p); return m }},
		TError:      {EncodeError(CodeQuery, "no such column"), func(p []byte) any { return *DecodeError(p) }},
	}
	for typ, d := range decoders {
		pristine := append([]byte(nil), d.payload...)
		got := d.decode(d.payload)
		for i := range d.payload {
			d.payload[i] = 0xFF
		}
		if want := d.decode(pristine); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: decoded value changed with its payload:\n got %+v\nwant %+v", typ, got, want)
		}
	}
}

// decodeAny dispatches a payload to its message decoder, as the server
// and client loops do.
func decodeAny(t Type, p []byte) error {
	switch t {
	case THello:
		_, err := DecodeHello(p)
		return err
	case TQuery:
		_, err := DecodeQuery(p)
		return err
	case TPrepare:
		_, err := DecodePrepare(p)
		return err
	case TExecute:
		_, err := DecodeExecute(p)
		return err
	case TCloseStmt:
		_, err := DecodeCloseStmt(p)
		return err
	case TSet:
		_, err := DecodeSet(p)
		return err
	case THelloOK:
		_, err := DecodeHelloOK(p)
		return err
	case TRowDesc:
		_, err := DecodeRowDesc(p)
		return err
	case TRow:
		_, err := DecodeRow(p)
		return err
	case TDone:
		_, err := DecodeDone(p)
		return err
	case TPrepareOK:
		_, err := DecodePrepareOK(p)
		return err
	case TError:
		DecodeError(p)
		return nil
	}
	return nil
}

var allTypes = []Type{THello, TQuery, TPrepare, TExecute, TCloseStmt, TSet, TTerminate,
	THelloOK, TRowDesc, TRow, TDone, TError, TPrepareOK}

// Property test: truncating or corrupting any valid encoding yields a
// typed *Error from the decoder — never a panic, never silence on
// trailing garbage.
func TestMalformedPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	encodings := map[Type][]byte{
		THello:     EncodeHello(Hello{Version: 1, User: "u", Secret: "s"}),
		TQuery:     EncodeQuery(Query{SQL: "select 1"}),
		TPrepare:   EncodePrepare(Prepare{Name: "p", SQL: "select $1"}),
		TExecute:   EncodeExecute(Execute{Name: "p", Params: sampleDatums()}),
		TCloseStmt: EncodeCloseStmt(CloseStmt{Name: "p"}),
		TSet:       EncodeSet(Set{Name: "k", Value: "v"}),
		THelloOK:   EncodeHelloOK(HelloOK{ServerVersion: "v", SessionID: 9}),
		TRowDesc:   EncodeRowDesc(RowDesc{Cols: []Col{{Name: "c", Tag: tagDate}}}),
		TRow:       EncodeRow(Row{Vals: sampleDatums()}),
		TDone:      EncodeDone(Done{Rows: 3, Analyze: "x"}),
		TPrepareOK: EncodePrepareOK(PrepareOK{NumParams: 1, Cols: []Col{{Name: "c", Tag: tagInt32}}}),
	}
	for typ, good := range encodings {
		if err := decodeAny(typ, good); err != nil {
			t.Fatalf("%v: valid encoding rejected: %v", typ, err)
		}
		// Every strict truncation must fail with a typed error.
		for cut := 0; cut < len(good); cut++ {
			err := decodeAny(typ, good[:cut])
			var we *Error
			if err == nil || !errors.As(err, &we) {
				t.Fatalf("%v truncated at %d: err = %v", typ, cut, err)
			}
		}
		// Trailing garbage must fail.
		err := decodeAny(typ, append(append([]byte{}, good...), 0xFE))
		var we *Error
		if err == nil || !errors.As(err, &we) {
			t.Fatalf("%v with trailing byte: err = %v", typ, err)
		}
		// Random corruption must never panic (errors are fine).
		for i := 0; i < 200; i++ {
			mut := append([]byte{}, good...)
			for j := 0; j < 1+rng.Intn(4); j++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			_ = decodeAny(typ, mut)
		}
	}
}

// FuzzDecode drives every decoder over arbitrary bytes; the property is
// simply "no panic, and failures are typed".
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeExecute(Execute{Name: "p", Params: sampleDatums()}))
	f.Add(EncodeRow(Row{Vals: sampleDatums()}))
	f.Add(EncodeHello(Hello{Version: 1, User: "u", Secret: "s"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range allTypes {
			if err := decodeAny(typ, data); err != nil {
				var we *Error
				if !errors.As(err, &we) {
					t.Fatalf("%v: untyped decode error %T: %v", typ, err, err)
				}
			}
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TQuery, EncodeQuery(Query{SQL: "select 1"}))
	f.Add(buf.Bytes())
	f.Add([]byte{0x85, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, reader := range readers {
			next := reader(bytes.NewReader(data))
			for {
				fr, err := next()
				if err != nil {
					var we *Error
					if errors.As(err, &we) && we.Code != CodeMalformed && we.Code != CodeTooLarge {
						t.Fatalf("%s: unexpected error code %v", name, we.Code)
					}
					break
				}
				_ = decodeAny(fr.Type, fr.Payload)
			}
		}
	})
}
