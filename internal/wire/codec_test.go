package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"github.com/graybox-stabilization/graybox/internal/ltime"
	"github.com/graybox-stabilization/graybox/internal/tme"
)

func sampleMessages() []tme.Message {
	return []tme.Message{
		{},
		{Kind: tme.Request, TS: ltime.Timestamp{Clock: 1, PID: 0}, From: 0, To: 1},
		{Kind: tme.Reply, TS: ltime.Timestamp{Clock: 42, PID: 3}, From: 3, To: 0},
		{Kind: tme.Release, TS: ltime.Timestamp{Clock: math.MaxUint64, PID: math.MaxInt32}, From: math.MaxInt32, To: math.MinInt32},
		// Forged kinds and out-of-range ids round-trip: the fault model
		// manufactures them and receivers are responsible for dropping.
		{Kind: tme.Kind(0xEE), TS: ltime.Timestamp{Clock: 7, PID: -1}, From: -5, To: 99},
		// Sharded messages carry a resource id (the old v1 flags field).
		{Kind: tme.Request, TS: ltime.Timestamp{Clock: 9, PID: 2}, From: 2, To: 0, Resource: 3},
		{Kind: tme.Release, TS: ltime.Timestamp{Clock: 10, PID: 1}, From: 1, To: 2, Resource: math.MaxUint16},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("AppendFrame(%+v): %v", m, err)
		}
		if len(b) != FrameSize {
			t.Fatalf("frame size = %d, want %d", len(b), FrameSize)
		}
		got, err := DecodePayload(b[lenPrefixSize:])
		if err != nil {
			t.Fatalf("DecodePayload(%+v): %v", m, err)
		}
		if got != m {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestAppendFrameRejectsUnencodable(t *testing.T) {
	bad := []tme.Message{
		{Kind: -1},
		{Kind: 256},
		{From: math.MaxInt32 + 1},
		{To: math.MinInt32 - 1},
		{TS: ltime.Timestamp{PID: math.MaxInt32 + 1}},
		{Resource: -1},
		{Resource: math.MaxUint16 + 1},
	}
	for _, m := range bad {
		if _, err := AppendFrame(nil, m); !errors.Is(err, ErrFieldRange) {
			t.Errorf("AppendFrame(%+v) err = %v, want ErrFieldRange", m, err)
		}
	}
}

func TestDecodePayloadRejectsMalformed(t *testing.T) {
	good, err := AppendFrame(nil, tme.Message{Kind: tme.Request, From: 0, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := good[lenPrefixSize:]

	cases := []struct {
		name string
		p    []byte
		want error
	}{
		{"empty", nil, ErrBadLength},
		{"short", payload[:10], ErrBadLength},
		{"long", append(append([]byte{}, payload...), 0), ErrBadLength},
		{"version", append([]byte{9}, payload[1:]...), ErrBadVersion},
	}
	for _, c := range cases {
		if _, err := DecodePayload(c.p); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestResourceZeroFrameUnchanged pins the wire bytes old and new peers
// must agree on. A resource-0 message encodes to the exact bytes the
// pre-shard codec produced (the resource field reuses the old always-zero
// flags bytes), so -shards 1 clusters are wire-compatible with old peers;
// the golden frame pins every field's offset, width and byte order.
func TestResourceZeroFrameUnchanged(t *testing.T) {
	golden := []byte{
		0x00, 0x00, 0x00, 0x18, // payload length 24
		0x01,       // version
		0x02,       // kind (Reply)
		0x00, 0x00, // resource
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // clock
		0x00, 0x00, 0x00, 0x05, // ts pid
		0x00, 0x00, 0x00, 0x03, // from
		0xff, 0xff, 0xff, 0xfe, // to (-2)
	}
	sample := tme.Message{Kind: tme.Reply, TS: ltime.Timestamp{Clock: 0x0102030405060708, PID: 5}, From: 3, To: -2}
	gb, err := AppendFrame(nil, sample)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, golden) {
		t.Errorf("frame bytes changed:\n got % x\nwant % x", gb, golden)
	}

	m := tme.Message{Kind: tme.Request, TS: ltime.Timestamp{Clock: 42, PID: 3}, From: 3, To: 0}
	b, err := AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if b[6] != 0 || b[7] != 0 {
		t.Errorf("resource-0 frame has nonzero bytes at the old flags offset: % x", b[6:8])
	}
	shifted := m
	shifted.Resource = 5
	sb, err := AppendFrame(nil, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint16(sb[6:8]); got != 5 {
		t.Errorf("resource bytes = %d, want 5", got)
	}
}

func TestReaderWriterStream(t *testing.T) {
	var stream []byte
	msgs := sampleMessages()
	for _, m := range msgs {
		b, err := AppendFrame(stream, m)
		if err != nil {
			t.Fatalf("AppendFrame(%+v): %v", m, err)
		}
		stream = b
	}
	r := NewReader(bytes.NewReader(stream))
	for i, want := range msgs {
		got, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("ReadMessage #%d: %v", i, err)
		}
		if got != want {
			t.Errorf("#%d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Errorf("stream end err = %v, want io.EOF", err)
	}
}

func TestReaderTruncatedFrame(t *testing.T) {
	b, err := AppendFrame(nil, tme.Message{Kind: tme.Reply, From: 1, To: 2})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		r := NewReader(bytes.NewReader(b[:cut]))
		if _, err := r.ReadMessage(); err == nil {
			t.Fatalf("truncation at %d bytes decoded cleanly", cut)
		}
	}
}

func TestReaderRejectsOversizedLength(t *testing.T) {
	var hdr [lenPrefixSize]byte
	binary.BigEndian.PutUint32(hdr[:], MaxPayload+1)
	r := NewReader(bytes.NewReader(hdr[:]))
	if _, err := r.ReadMessage(); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("err = %v, want ErrPayloadTooLarge", err)
	}
}

// FuzzDecodeFrame feeds arbitrary byte streams through the deframing
// reader: malformed input must error, never panic. The v1 frame carries no
// connection state and every payload byte is a free field, so anything the
// reader accepts must re-encode to exactly the bytes it was read from.
func FuzzDecodeFrame(f *testing.F) {
	var stream []byte
	for _, m := range sampleMessages() {
		b, err := AppendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		stream = append(stream, b...)
	}
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0}, FrameSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for off := 0; ; off += FrameSize {
			m, err := r.ReadMessage()
			if err != nil {
				break
			}
			b, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatalf("decoded message %+v does not re-encode: %v", m, err)
			}
			if in := data[off : off+FrameSize]; !bytes.Equal(b, in) {
				t.Fatalf("re-encode mismatch for %+v:\n got % x\nwant % x", m, b, in)
			}
		}
	})
}
