// Package pagedio streams arbitrary bytes through paged files on the
// page store — the substrate the persistent index structures are
// serialized onto.
//
// The paper's indexes live inside SQL Server: their node and
// directory pages flow through the same buffer pool whose reads §3.1
// counts. Writing index structures through this package reproduces
// that property — a kd-tree or grid directory deserialized at
// cold open is read page by page via Store.Get (or a Scope), so
// index-structure I/O shows up in pagestore.Stats exactly like table
// I/O, instead of bypassing the pool through plain files.
//
// Stream layout: page 0 is a header page
//
//	magic      u32  "PGIO"
//	version    u32  StreamVersion
//	payloadLen u64
//	crc32      u32  CRC-32 (IEEE) of the payload bytes
//
// and the payload occupies pages 1..N back to back. The reader
// validates magic and version up front and the length and checksum
// once the payload has been consumed, so a truncated, torn, or
// bit-flipped stream is a descriptive error, never a silently
// corrupt structure.
package pagedio

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/pagestore"
)

// StreamVersion is the header version every stream is stamped with.
const StreamVersion = 1

const streamMagic = 0x4f494750 // "PGIO" little endian

// Source yields pinned pages for reading. *pagestore.Store and
// *pagestore.Scope both satisfy it; passing a Scope attributes the
// stream's page reads to one accounting scope. Streams read through
// GetScan: a paged stream is consumed in exactly one sequential
// pass, so its pages are scan-class in the buffer pool —
// deserializing a large index at cold open must not evict the
// pool's hot set.
type Source interface {
	GetScan(id pagestore.PageID) (*pagestore.Page, error)
}

// Sink allocates pinned pages for writing, scan-class for the same
// one-pass reason as Source (persisting an index while serving must
// not flush the hot set). *pagestore.Store and *pagestore.Scope
// both satisfy it.
type Sink interface {
	AllocScan(f pagestore.FileID) (*pagestore.Page, error)
}

// Writer streams bytes into a paged file. It keeps at most two pages
// pinned (the header and the current payload page), so any pool with
// >= 3 frames can host a write of any length. Close finalizes the
// header; a stream not Closed is unreadable by design (zero magic).
type Writer struct {
	sink   Sink
	file   pagestore.FileID
	header *pagestore.Page
	cur    *pagestore.Page
	off    int
	n      uint64
	crc    hash.Hash32
}

// NewWriter starts a stream at the beginning of an empty file.
func NewWriter(sink Sink, file pagestore.FileID) (*Writer, error) {
	header, err := sink.AllocScan(file)
	if err != nil {
		return nil, err
	}
	if header.ID.Num != 0 {
		header.Release()
		return nil, fmt.Errorf("pagedio: file %d is not empty (header landed on page %d)", file, header.ID.Num)
	}
	return &Writer{sink: sink, file: file, header: header, crc: crc32.NewIEEE()}, nil
}

// Write appends payload bytes, allocating pages as needed.
func (w *Writer) Write(p []byte) (int, error) {
	if w.header == nil {
		return 0, fmt.Errorf("pagedio: write after Close")
	}
	written := 0
	for len(p) > 0 {
		if w.cur == nil || w.off == pagestore.PageSize {
			if w.cur != nil {
				w.cur.MarkDirty()
				w.cur.Release()
				w.cur = nil
			}
			pg, err := w.sink.AllocScan(w.file)
			if err != nil {
				return written, err
			}
			w.cur, w.off = pg, 0
		}
		c := copy(w.cur.Data[w.off:], p)
		w.off += c
		w.n += uint64(c)
		w.crc.Write(p[:c])
		p = p[c:]
		written += c
	}
	return written, nil
}

// Abort releases the writer's pinned pages without finalizing the
// header: the half-written stream keeps its zero magic and stays
// unreadable. Use it (typically deferred) on mid-write error paths,
// where Close would stamp a valid-looking header over a truncated
// payload and a bare return would leak pool pins. Abort after a
// successful Close is a no-op.
func (w *Writer) Abort() {
	if w.cur != nil {
		w.cur.Release()
		w.cur = nil
	}
	if w.header != nil {
		w.header.Release()
		w.header = nil
	}
}

// Close finalizes the header (length + checksum) and releases every
// pinned page. The stream is readable only after a successful Close.
func (w *Writer) Close() error {
	if w.header == nil {
		return nil
	}
	if w.cur != nil {
		w.cur.MarkDirty()
		w.cur.Release()
		w.cur = nil
	}
	h := w.header.Data
	binary.LittleEndian.PutUint32(h[0:], streamMagic)
	binary.LittleEndian.PutUint32(h[4:], StreamVersion)
	binary.LittleEndian.PutUint64(h[8:], w.n)
	binary.LittleEndian.PutUint32(h[16:], w.crc.Sum32())
	w.header.MarkDirty()
	w.header.Release()
	w.header = nil
	return nil
}

// Reader streams a file written by Writer, validating the header up
// front and the payload length + checksum as the stream is consumed.
type Reader struct {
	src     Source
	file    pagestore.FileID
	name    string // for error messages
	payload uint64
	sum     uint32
	crc     hash.Hash32

	cur      *pagestore.Page
	nextPage pagestore.PageNum
	off      int
	read     uint64
}

// NewReader opens a stream, reading and validating the header page.
// name is used only in error messages.
func NewReader(src Source, file pagestore.FileID, name string) (*Reader, error) {
	header, err := src.GetScan(pagestore.PageID{File: file, Num: 0})
	if err != nil {
		return nil, fmt.Errorf("pagedio: %s: read header: %w", name, err)
	}
	defer header.Release()
	h := header.Data
	if magic := binary.LittleEndian.Uint32(h[0:]); magic != streamMagic {
		return nil, fmt.Errorf("pagedio: %s: bad magic %08x (not a paged stream, or the write never completed)", name, magic)
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != StreamVersion {
		return nil, fmt.Errorf("pagedio: %s: stream format version %d, this binary supports %d", name, v, StreamVersion)
	}
	return &Reader{
		src:      src,
		file:     file,
		name:     name,
		payload:  binary.LittleEndian.Uint64(h[8:]),
		sum:      binary.LittleEndian.Uint32(h[16:]),
		crc:      crc32.NewIEEE(),
		nextPage: 1,
	}, nil
}

// Read yields payload bytes, fetching pages through the Source as
// the stream advances. It returns io.EOF once payloadLen bytes have
// been delivered.
func (r *Reader) Read(p []byte) (int, error) {
	if r.read == r.payload {
		return 0, io.EOF
	}
	if remaining := r.payload - r.read; uint64(len(p)) > remaining {
		p = p[:remaining]
	}
	total := 0
	for len(p) > 0 {
		if r.cur == nil || r.off == pagestore.PageSize {
			if r.cur != nil {
				r.cur.Release()
				r.cur = nil
			}
			pg, err := r.src.GetScan(pagestore.PageID{File: r.file, Num: r.nextPage})
			if err != nil {
				return total, fmt.Errorf("pagedio: %s: stream truncated at page %d: %w", r.name, r.nextPage, err)
			}
			r.cur, r.off = pg, 0
			r.nextPage++
		}
		c := copy(p, r.cur.Data[r.off:])
		r.off += c
		r.read += uint64(c)
		r.crc.Write(p[:c])
		p = p[c:]
		total += c
	}
	return total, nil
}

// Close drains any unread payload (so the checksum covers the whole
// stream), releases pinned pages, and verifies the CRC. A checksum
// mismatch — a bit flip anywhere in the payload — is an error.
func (r *Reader) Close() error {
	_, drainErr := io.Copy(io.Discard, r)
	if r.cur != nil {
		r.cur.Release()
		r.cur = nil
	}
	if drainErr != nil {
		return drainErr
	}
	if got := r.crc.Sum32(); got != r.sum {
		return fmt.Errorf("pagedio: %s: payload checksum mismatch (stored %08x, computed %08x): stream is corrupt", r.name, r.sum, got)
	}
	return nil
}

// Verify closes the reader and diagnoses a caller's decode failure:
// when the stream itself is damaged (checksum mismatch, truncation)
// that integrity error is returned as the root cause — a bit flip
// usually surfaces first as a confusing decoder error — otherwise
// decodeErr is returned unchanged. Pass a nil decodeErr to simply
// close-and-verify.
func (r *Reader) Verify(decodeErr error) error {
	if cerr := r.Close(); cerr != nil {
		return cerr
	}
	return decodeErr
}

// Create creates the named file for a fresh stream and returns a
// Writer on it. A file the store has open is an error: persisted
// structures are written to a new generation's file, never over one
// in use.
func Create(store *pagestore.Store, name string) (*Writer, error) {
	id, err := store.CreateFile(name)
	if err != nil {
		return nil, err
	}
	return NewWriter(store, id)
}

// Open opens the named file and returns a validated Reader on it.
func Open(store *pagestore.Store, name string) (*Reader, error) {
	id, _, err := store.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return NewReader(store, id, name)
}

// WriteGob writes one gob stream into a new paged file of the given
// name: create, encode through encode(), finalize the header. On any
// error the half-written stream is aborted (pins released, header
// left unreadable). This is the one write path every persisted
// structure shares.
func WriteGob(store *pagestore.Store, name string, encode func(*gob.Encoder) error) error {
	w, err := Create(store, name)
	if err != nil {
		return err
	}
	defer w.Abort()
	bw := bufio.NewWriter(w)
	if err := encode(gob.NewEncoder(bw)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return w.Close()
}

// ReadGob reads a gob stream written by WriteGob, decoding through
// decode() and then verifying payload length and checksum. When
// decode fails on a damaged stream, the integrity error is reported
// as the root cause (see Reader.Verify).
func ReadGob(store *pagestore.Store, name string, decode func(*gob.Decoder) error) error {
	r, err := Open(store, name)
	if err != nil {
		return err
	}
	if err := decode(gob.NewDecoder(bufio.NewReader(r))); err != nil {
		return r.Verify(err)
	}
	return r.Close()
}
