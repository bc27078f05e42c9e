package remoteimpl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestReadMsgAllocatesOnlyReceivedBytes is the regression test for frame
// length prefixes trusted before the body arrives: a header declaring a
// maxFrame-sized frame followed by 3 bytes must fail as a truncated frame
// without allocating the declared gigabyte.
func TestReadMsgAllocatesOnlyReceivedBytes(t *testing.T) {
	frame := binary.BigEndian.AppendUint32(nil, maxFrame)
	frame = append(frame, 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req request
	_, err := readMsg(bytes.NewReader(frame), &req)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("truncated frame allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestReadMsgRoundTrip checks a frame written by writeMsg reads back intact
// with the byte count writeMsg reported, including a body larger than the
// initial read capacity.
func TestReadMsgRoundTrip(t *testing.T) {
	want := request{Seq: 7, Op: opSetPartials, Buf: 3, Floats: make([]float64, 20000)}
	for i := range want.Floats {
		want.Floats[i] = float64(i) / 3
	}
	var wire bytes.Buffer
	wrote, err := writeMsg(&wire, &want)
	if err != nil {
		t.Fatal(err)
	}
	var got request
	read, err := readMsg(&wire, &got)
	if err != nil {
		t.Fatal(err)
	}
	if read != wrote {
		t.Errorf("read %d bytes, wrote %d", read, wrote)
	}
	if got.Seq != want.Seq || got.Op != want.Op || got.Buf != want.Buf || len(got.Floats) != len(want.Floats) {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	for i := range want.Floats {
		if got.Floats[i] != want.Floats[i] {
			t.Fatalf("float %d: got %v, want %v", i, got.Floats[i], want.Floats[i])
		}
	}
}
