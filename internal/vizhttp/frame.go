package vizhttp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/table"
)

// The binary rendering of a row answer — /query, /sky and /points —
// served to a request whose Accept header is FrameContentType: every
// row a shard sends the coordinator. A stream is a header and a
// sequence of frames, all little endian (DESIGN.md "Shard wire" has
// the failure semantics and versioning):
//
//	header  "RQF" version(2)  u16 table.ColumnSet  u32 CRC-32 of the six bytes
//	frame   kind(1)  u32 payload length  payload  u32 CRC-32 (IEEE) of kind, length and payload
//
//	'R' rows     n × table.RecordSize bytes, the table's own record layout
//	'S' summary  10 × u64: plan, estimatedSelectivity (float64 bits),
//	             rowsReturned rowsExamined diskReads cacheHits
//	             pagesSkipped pagesScanned stripsDecoded leavesExamined;
//	             ends the stream
//	'E' error    the message; ends the stream after the rows before it
const FrameContentType = "application/x-repro-frames"

const (
	frameMagic  = "RQF\x02"
	summaryLen  = 10
	kindRows    = 'R'
	kindSummary = 'S'
	kindError   = 'E'

	maxFramePayload = 16 << 20 // what a reader will buffer; writers seal at ~streamFlushBytes
)

// FrameWriter renders a row stream as frames, straight from the record
// with no float formatting: Begin, then Row per row with a Seal before
// any write (it closes the rows frame the pending rows are in), then
// End. It is the rowFormat streamRows serves the coordinator with.
type FrameWriter struct {
	Cols table.ColumnSet
	open int // 1 + offset of the unsealed rows frame in dst, 0 for none
}

func (*FrameWriter) ContentType() string { return FrameContentType }

func (f *FrameWriter) Begin(dst []byte) []byte {
	n := len(dst)
	dst = binary.LittleEndian.AppendUint16(append(dst, frameMagic...), uint16(f.Cols))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[n:]))
}

func (f *FrameWriter) Row(dst []byte, rec *table.Record) []byte {
	if f.open == 0 {
		dst = append(dst, kindRows, 0, 0, 0, 0) // the length is Seal's to fill
		f.open = len(dst) - 4
	}
	n := len(dst)
	dst = append(dst, make([]byte, table.RecordSize)...)
	rec.Encode(dst[n:])
	return dst
}

func (f *FrameWriter) Seal(dst []byte) []byte {
	if f.open == 0 {
		return dst
	}
	start := f.open - 1
	f.open = 0
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-5))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// End closes the stream: the summary frame, or err as an error frame.
func (f *FrameWriter) End(dst []byte, rep core.Report, err error) []byte {
	dst = f.Seal(dst)
	f.open = len(dst) + 1
	if err != nil {
		dst = append(append(dst, kindError, 0, 0, 0, 0), err.Error()...)
		return f.Seal(dst)
	}
	dst = append(dst, kindSummary, 0, 0, 0, 0)
	for _, v := range [...]uint64{uint64(rep.Plan), math.Float64bits(rep.EstimatedSelectivity),
		uint64(rep.RowsReturned), uint64(rep.RowsExamined), uint64(rep.DiskReads), uint64(rep.CacheHits),
		uint64(rep.PagesSkipped), uint64(rep.PagesScanned), uint64(rep.StripsDecoded), uint64(rep.LeavesExamined)} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return f.Seal(dst)
}

// FrameReader decodes one frame stream.
type FrameReader struct {
	r    io.Reader
	cols table.ColumnSet
	buf  []byte
}

// NewFrameReader reads the stream header from r.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	fr := &FrameReader{r: r}
	var head [len(frameMagic) + 6]byte
	if err := fr.read(head[:]); err != nil {
		return nil, err
	}
	if string(head[:len(frameMagic)]) != frameMagic || crc32.ChecksumIEEE(head[:len(head)-4]) != binary.LittleEndian.Uint32(head[len(head)-4:]) {
		// An older writer's stream is refused whole: its summary frame has
		// fewer fields than this reader's.
		return nil, fmt.Errorf("not a frame stream this reader knows (starts %q, want %q)", head[:], frameMagic)
	}
	fr.cols = table.ColumnSet(binary.LittleEndian.Uint16(head[len(frameMagic):]))
	return fr, nil
}

// read fills p; the input ending where a frame was due is a cut stream.
func (fr *FrameReader) read(p []byte) error {
	_, err := io.ReadFull(fr.r, p)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errors.New("stream truncated before summary")
	}
	return err
}

// Next reads one frame: a block of rows holding the header's columns
// (every other field zero), or the summary that ends the stream, rep
// non-nil. An error frame, a failed checksum and a stream cut before
// its summary are errors; no row of a damaged frame is returned.
func (fr *FrameReader) Next() (recs []table.Record, rep *core.Report, err error) {
	var head [5]byte
	if err := fr.read(head[:]); err != nil {
		return nil, nil, err
	}
	n := int(binary.LittleEndian.Uint32(head[1:]))
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("frame of %d bytes exceeds %d", n, maxFramePayload)
	}
	if cap(fr.buf) < n+4 {
		fr.buf = make([]byte, n+4)
	}
	p := fr.buf[:n+4]
	if err := fr.read(p); err != nil {
		return nil, nil, err
	}
	if crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, p[:n]) != binary.LittleEndian.Uint32(p[n:]) {
		return nil, nil, errors.New("frame checksum mismatch")
	}
	p = p[:n]
	switch {
	case head[0] == kindRows && n%table.RecordSize == 0:
		recs = make([]table.Record, n/table.RecordSize)
		for i := range recs {
			recs[i].DecodeCols(p[i*table.RecordSize:], fr.cols)
			if recs[i].Class >= table.NumClasses {
				return nil, nil, fmt.Errorf("unknown class %d", recs[i].Class)
			}
		}
		return recs, nil, nil
	case head[0] == kindSummary && n == summaryLen*8:
		// Reading the end of the body is also what lets the transport
		// reuse the connection.
		if extra, _ := fr.r.Read(head[:1]); extra != 0 {
			return nil, nil, errors.New("bytes after the summary frame")
		}
		var v [summaryLen]int64
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
		}
		return nil, &core.Report{Plan: core.Plan(v[0]), EstimatedSelectivity: math.Float64frombits(uint64(v[1])),
			RowsReturned: v[2], RowsExamined: v[3], DiskReads: v[4], CacheHits: v[5],
			PagesSkipped: v[6], PagesScanned: v[7], StripsDecoded: v[8], LeavesExamined: v[9]}, nil
	case head[0] == kindError:
		return nil, nil, errors.New(string(p))
	}
	return nil, nil, fmt.Errorf("bad frame: kind %q, %d bytes", head[0], n)
}
