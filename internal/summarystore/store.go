package summarystore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"flowdroid/internal/ir"
	"flowdroid/internal/taint"
)

// FormatVersion is the on-disk format version. Entries written under a
// different version are treated as misses — never migrated, never
// errors — so the format can change freely between releases. It also
// versions the built-in source/sink rules and the hashing scheme:
// bumping it invalidates every store.
const FormatVersion = 1

// Store is a disk-backed summary store rooted at one directory. The
// zero-cost contract: Open never touches the disk (directories are
// created lazily on flush), a missing or unreadable root simply yields
// misses, and nothing in the store can fail an analysis.
type Store struct {
	root string
}

// Open returns a store rooted at dir. It never fails; all I/O errors
// surface later as lookup misses or a Flush error.
func Open(dir string) *Store {
	if dir == "" {
		return nil
	}
	return &Store{root: dir}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// Session binds the store to one analysis run: a namespace (the app's
// package), a configuration fingerprint (any setting that changes
// transfer-function behaviour must be folded in by the caller — the
// pipeline computes it), and the run's method hashes. The session
// implements taint.Summaries; lookups read through a per-session file
// cache and persists are buffered in memory until Flush, so a run that
// dies mid-way writes nothing.
func (s *Store) Session(appNS, configFP string, hashes map[*ir.Method]string) *Session {
	if s == nil {
		return nil
	}
	return &Session{
		dir:     filepath.Join(s.root, sanitize(configFP), sanitize(appNS)),
		hashes:  hashes,
		files:   make(map[string]*fileState),
		pending: make(map[*ir.Method]map[string]*taint.MethodSummary),
	}
}

// sanitize keeps namespace components filesystem-safe.
func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// fileRecord is the on-disk shape of one method's summaries: every
// entry-fact shape analyzed for the method, under one transitive
// content hash. Sig disambiguates the (truncated) name hash the file is
// keyed by.
type fileRecord struct {
	FormatVersion int                             `json:"formatVersion"`
	Sig           string                          `json:"sig"`
	MethodHash    string                          `json:"methodHash"`
	Entries       map[string]*taint.MethodSummary `json:"entries"`
}

// fileState caches one file's classification for the session.
type fileState struct {
	rec    *fileRecord
	status taint.LookupStatus // LookupHit means "readable and parsed"
}

// Session is one run's view of the store, used by that run's
// single-threaded solver.
type Session struct {
	dir    string
	hashes map[*ir.Method]string

	files   map[string]*fileState
	pending map[*ir.Method]map[string]*taint.MethodSummary
}

func (ss *Session) path(m *ir.Method) string {
	sum := sha256.Sum256([]byte(m.String()))
	return filepath.Join(ss.dir, hex.EncodeToString(sum[:8])+".sum")
}

// Lookup implements taint.Summaries. Every failure mode — absent file,
// unreadable file, malformed JSON, wrong format version, name-hash
// collision, stale method hash, absent shape — degrades to a miss-like
// status; nothing errors.
func (ss *Session) Lookup(m *ir.Method, shape string) (*taint.MethodSummary, taint.LookupStatus) {
	hash, ok := ss.hashes[m]
	if !ok {
		return nil, taint.LookupMiss
	}
	path := ss.path(m)
	st := ss.files[path]
	if st == nil {
		st = loadFile(path)
		ss.files[path] = st
	}
	if st.status != taint.LookupHit {
		return nil, st.status
	}
	if st.rec.Sig != m.String() {
		return nil, taint.LookupMiss // truncated-name-hash collision
	}
	if st.rec.MethodHash != hash {
		return nil, taint.LookupInvalidated
	}
	rec, ok := st.rec.Entries[shape]
	if !ok || rec == nil {
		return nil, taint.LookupMiss
	}
	return rec, taint.LookupHit
}

// loadFile classifies a summary file: absent is a miss; unreadable,
// unparseable, or version-mismatched is corrupt.
func loadFile(path string) *fileState {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &fileState{status: taint.LookupMiss}
		}
		return &fileState{status: taint.LookupCorrupt}
	}
	var rec fileRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return &fileState{status: taint.LookupCorrupt}
	}
	if rec.FormatVersion != FormatVersion {
		return &fileState{status: taint.LookupCorrupt}
	}
	return &fileState{rec: &rec, status: taint.LookupHit}
}

// Persist implements taint.Summaries: it buffers the record in memory.
// The engine only calls it after a Completed run; nothing reaches the
// disk until Flush.
func (ss *Session) Persist(m *ir.Method, shape string, rec *taint.MethodSummary) {
	if _, ok := ss.hashes[m]; !ok {
		return
	}
	per := ss.pending[m]
	if per == nil {
		per = make(map[string]*taint.MethodSummary)
		ss.pending[m] = per
	}
	per[shape] = rec
}

// Flush writes the buffered summaries to disk, one atomically-replaced
// file per method. An existing file under the same method hash is
// merged (new shapes win); a stale or unreadable file is overwritten
// wholesale. Errors are collected, not fatal — the store is a cache.
func (ss *Session) Flush() error {
	pending := ss.pending
	ss.pending = make(map[*ir.Method]map[string]*taint.MethodSummary)
	if len(pending) == 0 {
		return nil
	}
	if err := os.MkdirAll(ss.dir, 0o755); err != nil {
		return fmt.Errorf("summarystore: %w", err)
	}
	var errs []error
	for m, shapes := range pending {
		hash := ss.hashes[m]
		path := ss.path(m)
		rec := &fileRecord{FormatVersion: FormatVersion, Sig: m.String(), MethodHash: hash}
		if prev := loadFile(path); prev.status == taint.LookupHit &&
			prev.rec.Sig == rec.Sig && prev.rec.MethodHash == hash {
			rec.Entries = prev.rec.Entries
		}
		if rec.Entries == nil {
			rec.Entries = make(map[string]*taint.MethodSummary)
		}
		for shape, sum := range shapes {
			rec.Entries[shape] = sum
		}
		if err := writeAtomic(path, rec); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// writeAtomic writes the record via a temp file and rename, so readers
// never observe a torn file and a crash mid-write leaves the previous
// version intact.
func writeAtomic(path string, rec *fileRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
