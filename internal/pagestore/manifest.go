package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// The manifest is the store's superblock: a small checksummed file
// (named MANIFEST, not itself paged) recording the format version and
// the directory of paged files with their exact page counts. It is
// the paper's "indexes are persisted with the database" made
// explicit. One function writes it (writeManifestLocked), reached
// only through Flush, Commit and Close, each after every in-flight
// alloc has landed and every dirty page is on disk; a database commits
// through Commit, whose manifest lists exactly the files its catalog
// names and which unlinks what that manifest dropped only after the
// rename. OpenExisting validates it, and any mismatch — version skew,
// checksum corruption, a truncated or torn paged file — is a
// descriptive error instead of a silent rebuild or a panic deeper in
// the stack.
//
// Layout (little endian), all covered by the trailing CRC-32 (IEEE):
//
//	magic       u32  "SPGM"
//	version     u32  FormatVersion
//	epoch       u64  store epoch, bumped on every manifest rewrite
//	durableSeq  u64  highest WAL sequence compacted into paged files
//	artifactGen u64  current generation of rewritten artifacts
//	fileCount   u32
//	fileCount × { nameLen u16 | name bytes | pages u32 }
//	crc32       u32  over every preceding byte
//
// The epoch is the store's coarse change counter: any Flush/Close
// that actually wrote data bumps it, so a cache keyed on the epoch
// (internal/qcache) invalidates wholesale when the catalog is
// rebuilt or re-persisted, without tracking individual pages.
//
// durableSeq and artifactGen are the write path's recovery anchors.
// durableSeq commits — in the same atomic manifest rename as the data
// file sizes covering them — which WAL records have been merged into
// the paged tables: recovery replays only records above it, so a
// crash between compaction and log rotation can never double-apply an
// insert. artifactGen names the current generation of
// rewritten-not-appended artifacts (system catalog, zone sidecars,
// index structures, rebuilt clustered tables): compaction writes the
// next generation to fresh "name@gen" files and this one manifest
// rename flips the database to them, so a crash mid-compaction leaves
// the previous generation fully intact.

// ManifestName is the superblock's file name within the store dir.
const ManifestName = "MANIFEST"

// FormatVersion is the on-disk format version stamped into the
// manifest. Bump it when the page layout or manifest layout changes.
// Version 2 added the store epoch after the version field; version 3
// added durableSeq and artifactGen for the online-ingest write path.
// OpenExisting accepts version 2 (reading zero for the new fields —
// a pre-ingest database has nothing to recover) and refuses anything
// else.
const FormatVersion = 3

const manifestMagic = 0x4d475053 // "SPGM" little endian

// encodeManifest serializes a file directory. Entries are sorted by
// name so the bytes are deterministic.
func encodeManifest(version uint32, epoch, durableSeq, artifactGen uint64, files map[string]PageNum) []byte {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 36+len(names)*32)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], manifestMagic)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], version)
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], epoch)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint64(tmp[:8], durableSeq)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint64(tmp[:8], artifactGen)
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(names)))
	buf = append(buf, tmp[:4]...)
	for _, n := range names {
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(n)))
		buf = append(buf, tmp[:2]...)
		buf = append(buf, n...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(files[n]))
		buf = append(buf, tmp[:4]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.ChecksumIEEE(buf))
	buf = append(buf, tmp[:4]...)
	return buf
}

// decodeManifest parses and validates manifest bytes, returning the
// file directory, the stored epoch, the durable WAL sequence, and the
// artifact generation (both zero when reading a version-2 manifest).
func decodeManifest(buf []byte) (map[string]PageNum, uint64, uint64, uint64, error) {
	if len(buf) < 24 {
		return nil, 0, 0, 0, fmt.Errorf("pagestore: manifest truncated (%d bytes)", len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, 0, 0, 0, fmt.Errorf("pagestore: manifest checksum mismatch (stored %08x, computed %08x): superblock is corrupt", sum, got)
	}
	if magic := binary.LittleEndian.Uint32(body[0:]); magic != manifestMagic {
		return nil, 0, 0, 0, fmt.Errorf("pagestore: bad manifest magic %08x (not a page store?)", magic)
	}
	v := binary.LittleEndian.Uint32(body[4:])
	if v != FormatVersion && v != 2 {
		return nil, 0, 0, 0, fmt.Errorf("pagestore: manifest format version %d, this binary supports %d", v, FormatVersion)
	}
	epoch := binary.LittleEndian.Uint64(body[8:])
	var durableSeq, artifactGen uint64
	off := 16
	if v >= 3 {
		if len(body) < 40 {
			return nil, 0, 0, 0, fmt.Errorf("pagestore: manifest truncated (%d bytes)", len(buf))
		}
		durableSeq = binary.LittleEndian.Uint64(body[16:])
		artifactGen = binary.LittleEndian.Uint64(body[24:])
		off = 32
	}
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	files := make(map[string]PageNum, count)
	for i := 0; i < count; i++ {
		if off+2 > len(body) {
			return nil, 0, 0, 0, fmt.Errorf("pagestore: manifest truncated inside entry %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+nameLen+4 > len(body) {
			return nil, 0, 0, 0, fmt.Errorf("pagestore: manifest truncated inside entry %d", i)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		files[name] = PageNum(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	if off != len(body) {
		return nil, 0, 0, 0, fmt.Errorf("pagestore: manifest has %d trailing bytes", len(body)-off)
	}
	return files, epoch, durableSeq, artifactGen, nil
}

// writeManifestLocked rewrites the superblock from the current file
// directory. Caller holds s.mu. The write is atomic and durable:
// data files are fsynced before the manifest that records them, the
// temp manifest is fsynced before the rename, and the directory is
// fsynced after it — a crash at any point leaves either the old or
// the new manifest intact, never a torn one.
//
// A store that performed no writes since its manifest was loaded or
// last written skips the rewrite entirely, so read-only sessions
// never touch the superblock (and cannot clobber a manifest written
// concurrently by a builder process with their stale view).
func (s *Store) writeManifestLocked() error {
	// Claim the flag before doing the work: a mutation racing in
	// after the Swap (an eviction write-back sets mutated outside
	// every latch) re-sets it and forces the next Flush/Close to
	// rewrite and re-fsync, instead of being erased by an
	// unconditional clear at the end and never reaching disk.
	if !s.mutated.Swap(false) {
		return nil
	}
	restore := func(err error) error { s.mutated.Store(true); return err }
	for _, f := range s.files {
		if f == nil {
			continue // deleted file's tombstoned slot
		}
		if err := f.Sync(); err != nil {
			return restore(fmt.Errorf("pagestore: sync data file: %w", err))
		}
	}
	files := make(map[string]PageNum, len(s.names))
	for name, id := range s.names {
		files[name] = s.sizes[id]
	}
	// Keep entries for files listed by a loaded manifest but not
	// (re)opened in this session: they are still part of the database.
	for name, pages := range s.manifest {
		if _, open := s.names[name]; !open {
			files[name] = pages
		}
	}
	// A rewrite means data changed since the manifest was loaded or
	// last written: advance the store epoch so epoch-keyed caches see
	// a new world. Bumped before encoding so the persisted epoch and
	// the in-memory one agree; restored on failure along with the
	// mutated flag.
	epoch := s.epoch.Add(1)
	restoreEpoch := restore
	restore = func(err error) error { s.epoch.Add(^uint64(0)); return restoreEpoch(err) }
	buf := encodeManifest(FormatVersion, epoch, s.durableSeq.Load(), s.artifactGen.Load(), files)
	tmp := filepath.Join(s.dir, ManifestName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return restore(fmt.Errorf("pagestore: write manifest: %w", err))
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		return restore(fmt.Errorf("pagestore: write manifest: %w", err))
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return restore(fmt.Errorf("pagestore: sync manifest: %w", err))
	}
	if err := tf.Close(); err != nil {
		return restore(fmt.Errorf("pagestore: write manifest: %w", err))
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, ManifestName)); err != nil {
		return restore(fmt.Errorf("pagestore: install manifest: %w", err))
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	s.manifest = files
	return nil
}

// OpenExisting opens a store previously persisted at dir, validating
// the manifest superblock: magic, format version, checksum, and that
// every listed paged file exists on disk with at least the recorded
// number of whole pages. A SHORT file is an error — the manifest
// committed pages the disk lost. A LONG file is the expected debris
// of a crash between a compaction's page appends and its manifest
// commit: the uncommitted tail is truncated away (those rows are
// still in the WAL and will be replayed), restoring exactly the
// committed state.
func OpenExisting(dir string, poolPages int) (*Store, error) {
	if poolPages < 1 {
		return nil, fmt.Errorf("pagestore: pool must hold at least 1 page, got %d", poolPages)
	}
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("pagestore: %s has no %s: database not built (or built by a pre-manifest version)", dir, ManifestName)
		}
		return nil, fmt.Errorf("pagestore: read manifest: %w", err)
	}
	files, epoch, durableSeq, artifactGen, err := decodeManifest(buf)
	if err != nil {
		return nil, err
	}
	for name, pages := range files {
		path := filepath.Join(dir, name)
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("pagestore: manifest lists %q but it is missing: %w", name, err)
		}
		want := int64(pages) * PageSize
		if st.Size() < want {
			return nil, fmt.Errorf("pagestore: %q is %d bytes, manifest records %d pages (%d bytes): truncated or torn file",
				name, st.Size(), pages, want)
		}
		if st.Size() > want {
			if err := os.Truncate(path, want); err != nil {
				return nil, fmt.Errorf("pagestore: discard uncommitted tail of %q: %w", name, err)
			}
		}
	}
	s := newStoreState(dir, poolPages, files)
	s.epoch.Store(epoch)
	s.durableSeq.Store(durableSeq)
	s.artifactGen.Store(artifactGen)
	return s, nil
}

// HasFile reports whether the store knows the named paged file —
// either already open in this session or listed by the manifest it
// was opened from.
func (s *Store) HasFile(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.names[name]; ok {
		return true
	}
	_, ok := s.manifest[name]
	return ok
}

// ManifestFiles returns the persisted file directory (name → pages)
// recorded by the manifest the store was opened from, or written by
// its last Flush/Commit/Close. Nil for a fresh store that has never
// flushed.
func (s *Store) ManifestFiles() map[string]PageNum {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]PageNum, len(s.manifest))
	for n, p := range s.manifest {
		out[n] = p
	}
	return out
}
