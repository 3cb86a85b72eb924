package table

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// This file reproduces the §3.5 vector-data-type study. The paper
// compared three ways of moving 5-vectors through the database:
//
//  1. CLR User Defined Types with BinaryFormatter serialization —
//     flexible but CPU-bound. Our analog is gob encoding each record
//     (GobCodec), a general reflective serializer.
//  2. Native SQL column types — the fixed-layout Encode/Decode in
//     record.go (NativeCodec).
//  3. A binary blob decoded with unsafe pointer copies — our analog
//     lifts just the magnitude floats out of the raw record bytes
//     without materializing the row (BlobCodec).
//
// The paper found the blob+unsafe path within ~20% of native types
// while UDTs lagged badly; BenchmarkVectorCodec* reproduces the
// ordering.

// Codec serializes records; implementations must round-trip exactly.
type Codec interface {
	// Name identifies the codec in experiment output.
	Name() string
	// Encode appends the record's serialization to dst.
	Encode(dst []byte, r *Record) ([]byte, error)
	// Decode reads one record from src, returning the remaining bytes.
	Decode(src []byte, r *Record) ([]byte, error)
}

// NativeCodec is the fixed-layout binary codec used by the table
// itself (analog of native SQL column types).
type NativeCodec struct{}

// Name implements Codec.
func (NativeCodec) Name() string { return "native" }

// Encode implements Codec.
func (NativeCodec) Encode(dst []byte, r *Record) ([]byte, error) {
	var buf [RecordSize]byte
	r.Encode(buf[:])
	return append(dst, buf[:]...), nil
}

// Decode implements Codec.
func (NativeCodec) Decode(src []byte, r *Record) ([]byte, error) {
	if len(src) < RecordSize {
		return nil, fmt.Errorf("table: native decode: short buffer (%d bytes)", len(src))
	}
	r.Decode(src[:RecordSize])
	return src[RecordSize:], nil
}

// GobCodec serializes each record through encoding/gob, standing in
// for the paper's CLR UDT + BinaryFormatter path: a general,
// reflection-driven serializer with per-value overhead.
type GobCodec struct{}

// Name implements Codec.
func (GobCodec) Name() string { return "gob-udt" }

// Encode implements Codec.
func (GobCodec) Encode(dst []byte, r *Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("table: gob encode: %w", err)
	}
	// Length-prefix so records can be concatenated.
	n := buf.Len()
	dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	return append(dst, buf.Bytes()...), nil
}

// Decode implements Codec.
func (GobCodec) Decode(src []byte, r *Record) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("table: gob decode: short buffer")
	}
	n := int(src[0]) | int(src[1])<<8 | int(src[2])<<16 | int(src[3])<<24
	src = src[4:]
	if len(src) < n {
		return nil, fmt.Errorf("table: gob decode: truncated record")
	}
	if err := gob.NewDecoder(bytes.NewReader(src[:n])).Decode(r); err != nil {
		return nil, fmt.Errorf("table: gob decode: %w", err)
	}
	return src[n:], nil
}

// BlobCodec stores records in the native layout but decodes only the
// magnitude vector, mirroring the paper's unsafe-copy blob access:
// scans that need just the 5-vector never pay for the full row.
type BlobCodec struct{}

// Name implements Codec.
func (BlobCodec) Name() string { return "blob-unsafe" }

// Encode implements Codec. The on-disk form is identical to
// NativeCodec.
func (BlobCodec) Encode(dst []byte, r *Record) ([]byte, error) {
	return NativeCodec{}.Encode(dst, r)
}

// Decode implements Codec: only Mags are populated; other fields are
// zeroed. It is PartialCodec fixed to the magnitude columns.
func (BlobCodec) Decode(src []byte, r *Record) ([]byte, error) {
	return PartialCodec{Cols: ColMags}.Decode(src, r)
}

// PartialCodec generalizes the blob trick to any column subset: the
// on-disk form is the native layout, but Decode materializes only
// the selected columns — the codec face of projection pushdown. The
// streaming cursor uses the same DecodeCols path per row, so a
// SELECT naming two columns pays for two field decodes, not
// thirteen.
type PartialCodec struct {
	Cols ColumnSet
}

// Name implements Codec.
func (c PartialCodec) Name() string { return fmt.Sprintf("partial(%04x)", uint16(c.Cols)) }

// Encode implements Codec. The on-disk form is identical to
// NativeCodec: partial decoding is a read-side choice, not a storage
// format.
func (PartialCodec) Encode(dst []byte, r *Record) ([]byte, error) {
	return NativeCodec{}.Encode(dst, r)
}

// Decode implements Codec: only the selected columns are populated;
// other fields are zeroed.
func (c PartialCodec) Decode(src []byte, r *Record) ([]byte, error) {
	if len(src) < RecordSize {
		return nil, fmt.Errorf("table: partial decode: short buffer (%d bytes)", len(src))
	}
	r.DecodeCols(src[:RecordSize], c.Cols)
	return src[RecordSize:], nil
}
