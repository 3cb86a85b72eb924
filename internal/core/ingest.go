package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/colorsql"
	"repro/internal/memtable"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// The online-ingest entry point: the change that broke the engine's
// read-only assumption. An insert batch is encoded into one WAL
// record, fsynced (group commit with concurrent inserters), and made
// visible through the memtable; a compaction (compact.go) later moves
// the rows into the paged clustered tables. The durability contract:
//
//   - Insert returns only after the batch is durable in the WAL, so a
//     kill at any byte boundary loses no acknowledged rows.
//   - openIngest replays the WAL against the manifest's durable
//     sequence: records a past compaction committed are skipped,
//     everything newer is reconstructed into the memtable. The visible
//     row set after recovery is exactly the acknowledged batches.
//   - A row lives in exactly one of two places — the memtable or the
//     paged tables — and every read path merges both under a snapshot
//     (cursor.go), so no query ever sees a row twice or not at all.

// insertRecBytes is the fixed WAL footprint of one inserted record:
// the user-supplied columns only. Index columns (RandomID, Layer,
// ContainedBy, CellID, LeafID) are assigned by index builds at
// compaction time and are never logged.
const insertRecBytes = 8 + 4*table.Dim + 4 + 4 + 4 + 1 + 1

// encodeInsertPayload serializes one insert batch for the WAL:
// u32 row count, then per row ObjID i64, Dim×f32 magnitudes, ra f32,
// dec f32, redshift f32, HasZ u8, Class u8 (little endian).
func encodeInsertPayload(recs []table.Record) []byte {
	buf := make([]byte, 4+len(recs)*insertRecBytes)
	binary.LittleEndian.PutUint32(buf, uint32(len(recs)))
	off := 4
	for i := range recs {
		r := &recs[i]
		binary.LittleEndian.PutUint64(buf[off:], uint64(r.ObjID))
		off += 8
		for _, m := range r.Mags {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(m))
			off += 4
		}
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(r.Ra))
		binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(r.Dec))
		binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(r.Redshift))
		off += 12
		if r.HasZ {
			buf[off] = 1
		}
		buf[off+1] = byte(r.Class)
		off += 2
	}
	return buf
}

// decodeInsertPayload reverses encodeInsertPayload. The payload sits
// behind the WAL record's CRC, so a malformed length is corruption
// (or version skew), not a torn write — it fails loudly.
func decodeInsertPayload(p []byte) ([]table.Record, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("core: wal insert payload too short (%d bytes)", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if len(p) != 4+n*insertRecBytes {
		return nil, fmt.Errorf("core: wal insert payload claims %d rows but holds %d bytes", n, len(p))
	}
	recs := make([]table.Record, n)
	off := 4
	for i := range recs {
		r := &recs[i]
		r.ObjID = int64(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		for d := range r.Mags {
			r.Mags[d] = math.Float32frombits(binary.LittleEndian.Uint32(p[off:]))
			off += 4
		}
		r.Ra = math.Float32frombits(binary.LittleEndian.Uint32(p[off:]))
		r.Dec = math.Float32frombits(binary.LittleEndian.Uint32(p[off+4:]))
		r.Redshift = math.Float32frombits(binary.LittleEndian.Uint32(p[off+8:]))
		off += 12
		r.HasZ = p[off] != 0
		r.Class = table.Class(p[off+1])
		off += 2
	}
	return recs, nil
}

// openIngest opens (or creates) the store directory's WAL and rebuilds
// the memtable from the records the manifest's durable sequence does
// not cover. Called by both Open and OpenExisting before the db is
// shared, so crash recovery is part of every open.
func (db *SpatialDB) openIngest() error {
	wal, recs, err := pagestore.OpenWAL(db.dir)
	if err != nil {
		return err
	}
	durable := db.eng.Store().DurableSeq()
	// A rotated-empty log restarts numbering at 1 on reopen; pin it
	// past the manifest horizon so fresh batches are never mistaken
	// for already-compacted ones.
	wal.AdvanceSeq(durable)
	mem := memtable.New(durable + 1)
	for _, r := range recs {
		if r.Seq <= durable {
			// Covered by a compaction that committed before the crash;
			// the rows already live in the paged tables.
			continue
		}
		rows, err := decodeInsertPayload(r.Payload)
		if err != nil {
			wal.Close()
			return fmt.Errorf("core: wal replay seq %d: %w", r.Seq, err)
		}
		mem.Commit(r.Seq, rows)
	}
	db.wal = wal
	db.mem = mem
	return nil
}

// validateInsert rejects rows the storage layer cannot represent
// soundly: non-finite magnitudes or coordinates would poison the
// zone maps (whose persisted sidecars require finite bounds).
func validateInsert(recs []table.Record) error {
	for i := range recs {
		r := &recs[i]
		for d, m := range r.Mags {
			if f := float64(m); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("core: insert row %d: magnitude %d is not finite", i, d)
			}
		}
		for _, v := range [...]float32{r.Ra, r.Dec, r.Redshift} {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("core: insert row %d: position/redshift not finite", i)
			}
		}
		if r.Class >= table.NumClasses {
			return fmt.Errorf("core: insert row %d: unknown class %d", i, r.Class)
		}
	}
	return nil
}

// Insert appends a batch of records to the catalog through the write
// path: WAL append (durable before return, group-committed under
// concurrency), then memtable commit (visible to every cursor opened
// afterwards). Index columns on the passed records are ignored —
// compaction assigns them. Returns the batch's WAL sequence.
func (db *SpatialDB) Insert(recs []table.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("core: empty insert batch")
	}
	if err := validateInsert(recs); err != nil {
		return 0, err
	}
	db.mu.RLock()
	loaded, wal, mem := db.catalog != nil, db.wal, db.mem
	db.mu.RUnlock()
	if !loaded {
		return 0, fmt.Errorf("core: no catalog loaded")
	}
	if wal == nil {
		return 0, fmt.Errorf("core: ingest path not open")
	}
	// Logged rows carry only user columns; zero the index columns so
	// the memtable's view matches what compaction will write.
	clean := make([]table.Record, len(recs))
	for i := range recs {
		clean[i] = recs[i]
		clean[i].RandomID, clean[i].Layer, clean[i].ContainedBy = 0, 0, 0
		clean[i].CellID, clean[i].LeafID = 0, 0
	}
	seq, err := wal.Append(encodeInsertPayload(clean))
	if err != nil {
		return 0, err
	}
	mem.Commit(seq, clean)
	// Every cached plan and result predates this batch now.
	db.bumpPlanGen()
	return seq, nil
}

// ExecInsert parses and executes a colorsql INSERT statement,
// returning the batch's WAL sequence and the number of rows inserted.
func (db *SpatialDB) ExecInsert(src string) (uint64, int, error) {
	stmt, err := colorsql.ParseInsert(src, table.Dim)
	if err != nil {
		return 0, 0, err
	}
	seq, err := db.Insert(stmt.Rows)
	if err != nil {
		return 0, 0, err
	}
	return seq, len(stmt.Rows), nil
}

// MemRows returns the number of ingested rows awaiting compaction.
func (db *SpatialDB) MemRows() int {
	db.mu.RLock()
	mem := db.mem
	db.mu.RUnlock()
	if mem == nil {
		return 0
	}
	return mem.Len()
}

// IngestStats snapshots the write path's counters for /stats and the
// experiment harness.
type IngestStats struct {
	MemRows         int                `json:"memRows"`
	NextSeq         uint64             `json:"nextSeq"`
	DurableSeq      uint64             `json:"durableSeq"`
	WALBytes        int64              `json:"walBytes"`
	WAL             pagestore.WALStats `json:"wal"`
	Compactions     int64              `json:"compactions"`
	FullCompactions int64              `json:"fullCompactions"`
	CompactedRows   int64              `json:"compactedRows"`
}

// IngestStatsSnapshot returns the current write-path counters.
func (db *SpatialDB) IngestStatsSnapshot() IngestStats {
	db.mu.RLock()
	wal, mem := db.wal, db.mem
	db.mu.RUnlock()
	st := IngestStats{
		DurableSeq:      db.eng.Store().DurableSeq(),
		Compactions:     db.compactions.Load(),
		FullCompactions: db.fullCompactions.Load(),
		CompactedRows:   db.compactedRows.Load(),
	}
	if mem != nil {
		st.MemRows = mem.Len()
		st.NextSeq = mem.NextSeq()
	}
	if wal != nil {
		st.WALBytes = wal.Size()
		st.WAL = wal.Stats()
	}
	return st
}
