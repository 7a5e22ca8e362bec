// Package imagestore is the Cinema-style image database: a
// content-addressed, crash-safe store of rendered frames keyed by a
// (variable × timestep × camera) spec. In-situ rendering writes an
// indexed, interactively browsable image database instead of dropping
// frames after the step summary — the serving tier (internal/serve)
// exposes it to external viewers over HTTP.
//
// Layout on disk:
//
//	frames.seg   append-only blob segment (raw PNG bytes, framing in the index)
//	index.json   atomic JSON index: spec → digest, digest → (offset, length)
//
// Durability follows the recovery package's discipline: a blob is
// appended and fsynced to the segment before the index referencing it
// is rewritten via recovery.WriteFileAtomic, so a crash at any instant
// leaves a consistent store — at worst an orphan blob tail the index
// never mentions, which reopening skips over. Blobs are addressed by
// the SHA-256 of their bytes; identical frames (a steady-state field
// rendering identically two steps running) are stored once and indexed
// many times.
package imagestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"insitu/internal/obs"
	"insitu/internal/recovery"
	"insitu/internal/render"
)

// Spec keys one frame Cinema-style: variable × timestep × camera.
type Spec struct {
	Var  string
	Step int
	Cam  string
}

// Key renders the spec as its canonical "var/step/cam" path form —
// the shape the serving tier's /db/<var>/<step>/<cam> URLs use.
func (sp Spec) Key() string {
	return sp.Var + "/" + strconv.Itoa(sp.Step) + "/" + sp.Cam
}

// ParseSpec parses a canonical "var/step/cam" key.
func ParseSpec(key string) (Spec, error) {
	parts := strings.Split(key, "/")
	if len(parts) != 3 {
		return Spec{}, fmt.Errorf("imagestore: spec %q is not var/step/cam", key)
	}
	step, err := strconv.Atoi(parts[1])
	if err != nil {
		return Spec{}, fmt.Errorf("imagestore: spec %q has a non-numeric step", key)
	}
	sp := Spec{Var: parts[0], Step: step, Cam: parts[2]}
	return sp, sp.validate()
}

func (sp Spec) validate() error {
	if sp.Var == "" || sp.Cam == "" {
		return fmt.Errorf("imagestore: spec %+v needs a variable and a camera", sp)
	}
	if strings.ContainsRune(sp.Var, '/') || strings.ContainsRune(sp.Cam, '/') {
		return fmt.Errorf("imagestore: spec %+v: '/' is reserved as the key separator", sp)
	}
	if sp.Step < 0 {
		return fmt.Errorf("imagestore: spec %+v has a negative step", sp)
	}
	return nil
}

// blobRef locates one content-addressed blob inside the segment.
type blobRef struct {
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

// indexFile is the on-disk index shape.
type indexFile struct {
	Version      int                `json:"version"`
	SegmentBytes int64              `json:"segment_bytes"`
	LatestStep   int                `json:"latest_step"`
	Frames       map[string]string  `json:"frames"` // spec key -> digest
	Blobs        map[string]blobRef `json:"blobs"`  // digest -> location
}

const (
	segmentFile = "frames.seg"
	indexName   = "index.json"
	// indexVersion is the only index format this code reads or writes.
	indexVersion = 1
)

// ErrCorruptIndex is what Open returns (wrapped) for an index.json it
// must not trust: undecodable JSON, or a format version other than the
// one this code writes.
var ErrCorruptIndex = errors.New("imagestore: corrupt index")

// Store is the image database. All methods are safe for concurrent
// use; reads proceed under a shared lock while appends serialize.
type Store struct {
	dir string

	mu      sync.RWMutex
	seg     *os.File
	segSize int64
	frames  map[Spec]string
	blobs   map[string]blobRef
	latest  int

	cache *lruCache

	puts      atomic.Int64 // frames indexed
	dedups    atomic.Int64 // puts resolved to an existing blob
	dropped   atomic.Int64 // index entries dropped at open (torn segment)
	cacheHits atomic.Int64
	cacheMiss atomic.Int64
}

// Open opens (or creates) the store rooted at dir, validating every
// index entry against the segment: entries pointing past the segment's
// end (an externally truncated file) are dropped rather than served
// torn.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, segmentFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	fi, err := seg.Stat()
	if err != nil {
		seg.Close()
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	s := &Store{
		dir:     dir,
		seg:     seg,
		segSize: fi.Size(),
		frames:  make(map[Spec]string),
		blobs:   make(map[string]blobRef),
		cache:   newLRUCache(64 << 20),
	}
	raw, err := os.ReadFile(filepath.Join(dir, indexName))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		seg.Close()
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	var idx indexFile
	if err := json.Unmarshal(raw, &idx); err != nil {
		seg.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptIndex, indexName, err)
	}
	if idx.Version != indexVersion {
		seg.Close()
		return nil, fmt.Errorf("%w: %s has format version %d, want %d", ErrCorruptIndex, indexName, idx.Version, indexVersion)
	}
	for digest, ref := range idx.Blobs {
		if ref.Off < 0 || ref.Len <= 0 || ref.Len > fi.Size()-ref.Off {
			s.dropped.Add(1)
			continue
		}
		s.blobs[digest] = ref
	}
	for key, digest := range idx.Frames {
		sp, err := ParseSpec(key)
		if err != nil {
			s.dropped.Add(1)
			continue
		}
		if _, ok := s.blobs[digest]; !ok {
			s.dropped.Add(1)
			continue
		}
		s.frames[sp] = digest
		if sp.Step > s.latest {
			s.latest = sp.Step
		}
	}
	return s, nil
}

// SetCacheBytes resizes the in-memory LRU read cache (default 64 MiB).
func (s *Store) SetCacheBytes(n int64) { s.cache.resize(n) }

// PutFrame encodes a rendered frame to PNG and stores it under
// (variable, step, camera), returning the content digest. The frame's
// pixels are read but not retained; the caller keeps ownership of img.
func (s *Store) PutFrame(variable string, step int, cam string, img *render.Image) (string, error) {
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		return "", err
	}
	return s.Put(Spec{Var: variable, Step: step, Cam: cam}, buf.Bytes())
}

// Put stores png under sp and returns its content digest. The store
// takes ownership of png: the bytes may be retained by the read cache,
// so the caller must not modify them afterwards. A blob already
// present (same digest) is indexed without a second append; re-putting
// an identical frame under the same spec is an idempotent no-op.
func (s *Store) Put(sp Spec, png []byte) (string, error) {
	if err := sp.validate(); err != nil {
		return "", err
	}
	if len(png) == 0 {
		return "", fmt.Errorf("imagestore: empty frame for %s", sp.Key())
	}
	sum := sha256.Sum256(png)
	digest := hex.EncodeToString(sum[:])

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.frames[sp]; ok && prev == digest {
		s.dedups.Add(1)
		return digest, nil
	}
	if _, ok := s.blobs[digest]; !ok {
		// Durability order: blob bytes reach the segment (fsynced)
		// before any index references them.
		if _, err := s.seg.WriteAt(png, s.segSize); err != nil {
			return "", fmt.Errorf("imagestore: append %s: %w", sp.Key(), err)
		}
		if err := s.seg.Sync(); err != nil {
			return "", fmt.Errorf("imagestore: sync segment: %w", err)
		}
		s.blobs[digest] = blobRef{Off: s.segSize, Len: int64(len(png))}
		s.segSize += int64(len(png))
		s.cache.add(digest, png)
	} else {
		s.dedups.Add(1)
	}
	s.frames[sp] = digest
	if sp.Step > s.latest {
		s.latest = sp.Step
	}
	s.puts.Add(1)
	if err := s.writeIndexLocked(); err != nil {
		return "", err
	}
	return digest, nil
}

// writeIndexLocked lands the index atomically. Callers hold s.mu.
func (s *Store) writeIndexLocked() error {
	idx := indexFile{
		Version:      indexVersion,
		SegmentBytes: s.segSize,
		LatestStep:   s.latest,
		Frames:       make(map[string]string, len(s.frames)),
		Blobs:        s.blobs,
	}
	for sp, digest := range s.frames {
		idx.Frames[sp.Key()] = digest
	}
	raw, err := json.MarshalIndent(&idx, "", " ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := recovery.WriteFileAtomic(filepath.Join(s.dir, indexName), raw, 0o644); err != nil {
		return fmt.Errorf("imagestore: write index: %w", err)
	}
	return nil
}

// Frame returns the PNG bytes and content digest stored under sp. The
// returned slice is shared with the read cache and must be treated as
// read-only.
func (s *Store) Frame(sp Spec) ([]byte, string, error) {
	s.mu.RLock()
	digest, ok := s.frames[sp]
	s.mu.RUnlock()
	if !ok {
		return nil, "", fmt.Errorf("imagestore: no frame for %s", sp.Key())
	}
	data, err := s.Blob(digest)
	return data, digest, err
}

// Blob returns a blob's bytes by content digest, serving from the LRU
// read cache when possible. The returned slice must be treated as
// read-only.
func (s *Store) Blob(digest string) ([]byte, error) {
	if data, ok := s.cache.get(digest); ok {
		s.cacheHits.Add(1)
		return data, nil
	}
	s.cacheMiss.Add(1)
	s.mu.RLock()
	ref, ok := s.blobs[digest]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("imagestore: unknown blob %s", digest)
	}
	data := make([]byte, ref.Len)
	if _, err := s.seg.ReadAt(data, ref.Off); err != nil {
		return nil, fmt.Errorf("imagestore: read blob %s: %w", digest, err)
	}
	s.cache.add(digest, data)
	return data, nil
}

// Digest returns the content digest indexed under sp, if any.
func (s *Store) Digest(sp Spec) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.frames[sp]
	return d, ok
}

// Latest returns the highest step any frame is indexed under, and
// whether the store holds any frames at all.
func (s *Store) Latest() (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.latest, len(s.frames) > 0
}

// Info is the browsable shape of the store's index.
type Info struct {
	Vars       []string `json:"vars"`
	Cams       []string `json:"cams"`
	LatestStep int      `json:"latest_step"`
	Frames     int      `json:"frames"`
	Blobs      int      `json:"blobs"`
	Bytes      int64    `json:"bytes"`
	Specs      []string `json:"specs"`
}

// Info snapshots the index: the variable and camera axes, counts, and
// the full sorted spec list (every cell a viewer can fetch).
func (s *Store) Info() Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vars := map[string]bool{}
	cams := map[string]bool{}
	specs := make([]string, 0, len(s.frames))
	for sp := range s.frames {
		vars[sp.Var] = true
		cams[sp.Cam] = true
		specs = append(specs, sp.Key())
	}
	info := Info{
		LatestStep: s.latest,
		Frames:     len(s.frames),
		Blobs:      len(s.blobs),
		Bytes:      s.segSize,
		Specs:      specs,
	}
	for v := range vars {
		info.Vars = append(info.Vars, v)
	}
	for c := range cams {
		info.Cams = append(info.Cams, c)
	}
	sort.Strings(info.Vars)
	sort.Strings(info.Cams)
	sort.Strings(info.Specs)
	return info
}

// StepFrames returns the frames indexed at a step as spec key →
// digest, sorted iteration left to the caller.
func (s *Store) StepFrames(step int) map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string)
	for sp, digest := range s.frames {
		if sp.Step == step {
			out[sp.Var+"/"+sp.Cam] = digest
		}
	}
	return out
}

// Stats are the store's lifetime counters.
type Stats struct {
	Puts         int64 // frames indexed
	Dedups       int64 // puts served by an existing blob
	Dropped      int64 // index entries dropped at open (torn segment)
	CacheHits    int64
	CacheMisses  int64
	SegmentBytes int64
	Frames       int
	BlobsStored  int
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	frames, blobs, segSize := len(s.frames), len(s.blobs), s.segSize
	s.mu.RUnlock()
	return Stats{
		Puts:         s.puts.Load(),
		Dedups:       s.dedups.Load(),
		Dropped:      s.dropped.Load(),
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMiss.Load(),
		SegmentBytes: segSize,
		Frames:       frames,
		BlobsStored:  blobs,
	}
}

// PublishTo registers the store's metric families on an observability
// registry. Scrape-time functions read live counters; nil is a no-op.
func (s *Store) PublishTo(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("imagestore_puts_total", "frames indexed into the image store",
		func() float64 { return float64(s.puts.Load()) })
	reg.CounterFunc("imagestore_dedup_hits_total", "puts resolved to an already-stored blob",
		func() float64 { return float64(s.dedups.Load()) })
	reg.CounterFunc("imagestore_cache_hits_total", "blob reads served from the LRU cache",
		func() float64 { return float64(s.cacheHits.Load()) })
	reg.CounterFunc("imagestore_cache_misses_total", "blob reads that went to the segment",
		func() float64 { return float64(s.cacheMiss.Load()) })
	reg.GaugeFunc("imagestore_segment_bytes", "bytes in the append-only blob segment",
		func() float64 { s.mu.RLock(); defer s.mu.RUnlock(); return float64(s.segSize) })
	reg.GaugeFunc("imagestore_frames", "frames currently indexed",
		func() float64 { s.mu.RLock(); defer s.mu.RUnlock(); return float64(len(s.frames)) })
	reg.GaugeFunc("imagestore_blobs", "distinct content-addressed blobs stored",
		func() float64 { s.mu.RLock(); defer s.mu.RUnlock(); return float64(len(s.blobs)) })
}

// Close syncs and closes the segment. The index is already durable
// (rewritten atomically on every Put).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Sync()
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
	return err
}

// lruCache is a byte-bounded LRU of decoded blobs keyed by digest.
type lruCache struct {
	mu    sync.Mutex
	cap   int64
	size  int64
	items map[string]*lruItem
	head  *lruItem // most recent
	tail  *lruItem // least recent
}

type lruItem struct {
	key        string
	data       []byte
	prev, next *lruItem
}

func newLRUCache(capBytes int64) *lruCache {
	return &lruCache{cap: capBytes, items: make(map[string]*lruItem)}
}

func (c *lruCache) resize(capBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capBytes
	c.evictLocked()
}

func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.unlinkLocked(it)
	c.pushFrontLocked(it)
	return it.data, true
}

func (c *lruCache) add(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(len(data)) > c.cap {
		return
	}
	if it, ok := c.items[key]; ok {
		c.unlinkLocked(it)
		c.pushFrontLocked(it)
		return
	}
	it := &lruItem{key: key, data: data}
	c.items[key] = it
	c.size += int64(len(data))
	c.pushFrontLocked(it)
	c.evictLocked()
}

func (c *lruCache) evictLocked() {
	for c.size > c.cap && c.tail != nil {
		it := c.tail
		c.unlinkLocked(it)
		delete(c.items, it.key)
		c.size -= int64(len(it.data))
	}
}

func (c *lruCache) unlinkLocked(it *lruItem) {
	if it.prev != nil {
		it.prev.next = it.next
	} else if c.head == it {
		c.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else if c.tail == it {
		c.tail = it.prev
	}
	it.prev, it.next = nil, nil
}

func (c *lruCache) pushFrontLocked(it *lruItem) {
	it.next = c.head
	if c.head != nil {
		c.head.prev = it
	}
	c.head = it
	if c.tail == nil {
		c.tail = it
	}
}
