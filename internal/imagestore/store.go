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
//	index.log    append-only recovery.Log: a version header record, then one
//	             record per put (spec key, digest, offset, length); replayed
//	             into memory at Open, the later record for a spec winning
//
// Durability order: a put's new blobs are appended and fsynced to the
// segment before the index records naming them are appended and fsynced
// to the log, and only then is anything published to readers. A crash
// at any instant leaves a consistent store — at worst an orphan blob
// tail no record mentions, which reopening skips over, or a torn last
// log frame, which reopening stops at. A multi-camera frame set is one
// group commit (one segment fsync, one log fsync), and both fsyncs
// happen outside the lock readers take, so a viewer never waits on a
// disk flush. Open creates neither file; the first put does. Blobs are
// addressed by the SHA-256 of their bytes; identical frames (a
// steady-state field rendering identically two steps running) are
// stored once and indexed many times.
// A put encodes each PNG into a reused commit buffer and caches
// nothing: filling the LRU read cache on a put would take a per-frame
// copy of that buffer, the allocation the reuse removes. The cache
// fills on a read miss instead, with a fresh copy from the segment, so
// a frame's first read is a miss and pays for that copy.
package imagestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	var buf [64]byte
	return string(sp.appendKey(buf[:0]))
}

func (sp Spec) appendKey(dst []byte) []byte {
	dst = append(append(dst, sp.Var...), '/')
	dst = append(strconv.AppendInt(dst, int64(sp.Step), 10), '/')
	return append(dst, sp.Cam...)
}

// ParseSpec parses a canonical "var/step/cam" key: the one Key
// renders, so "T/007/cam00" and "T/+7/cam00" are refused rather than
// read as a second name for "T/7/cam00".
func ParseSpec(key string) (Spec, error) {
	parts := strings.Split(key, "/")
	if len(parts) != 3 {
		return Spec{}, fmt.Errorf("imagestore: spec %q is not var/step/cam", key)
	}
	step, err := strconv.Atoi(parts[1])
	if err != nil || strconv.Itoa(step) != parts[1] {
		return Spec{}, fmt.Errorf("imagestore: spec %q has a non-canonical step", key)
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
	Off int64
	Len int64
}

const (
	segmentFile = "frames.seg"
	indexName   = "index.log"
	// indexHeader is index.log's first record, naming the only index
	// format this code reads or writes.
	indexHeader = "imagestore index v2"
)

// ErrCorruptIndex is what Open returns (wrapped) for an index.log it
// must not trust: a first record that is not this format version's
// header, or an intact frame that does not decode as a put record.
var ErrCorruptIndex = errors.New("imagestore: corrupt index")

// A put record is [32-byte digest | uint64 offset | uint64 length | spec key],
// little-endian; the key runs to the end of the frame.
const putRecordFixed = sha256.Size + 16

func appendPutRecord(dst []byte, sp Spec, sum [sha256.Size]byte, ref blobRef) []byte {
	dst = append(dst, sum[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ref.Off))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ref.Len))
	return sp.appendKey(dst)
}

func decodePutRecord(p []byte) (sp Spec, digest string, ref blobRef, err error) {
	if len(p) <= putRecordFixed {
		return sp, "", ref, fmt.Errorf("imagestore: %d-byte put record", len(p))
	}
	ref.Off = int64(binary.LittleEndian.Uint64(p[sha256.Size:]))
	ref.Len = int64(binary.LittleEndian.Uint64(p[sha256.Size+8:]))
	sp, err = ParseSpec(string(p[putRecordFixed:]))
	return sp, digestString(p[:sha256.Size]), ref, err
}

// digestString returns a sha256 sum's hex text, the frame's digest,
// with one allocation: the string. hex.EncodeToString would allocate
// a scratch slice first.
func digestString(sum []byte) string {
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum)
	return string(text[:])
}

// Store is the image database. All methods are safe for concurrent
// use. Writers serialise on wmu and make a put durable before taking
// mu, which they hold only to publish the new map entries; readers
// share mu and so never wait behind an fsync.
type Store struct {
	dir string

	wmu       sync.Mutex         // one commit at a time; guards idx and the commit scratch below
	idx       *recovery.Log      // index.log
	segBuf    []byte             // the commit buffer: a commit's new blobs, for one segment write
	recBuf    []byte             // its index records, back to back
	records   [][]byte           // the same records (and the header), as idx.Append takes them
	newFrames map[Spec]string    // its frames, not yet published
	newBlobs  map[string]blobRef // its new blobs, not yet published

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

// Open opens (or creates) the store rooted at dir, replaying index.log
// and validating every entry against the segment: entries pointing
// past the segment's end (an externally truncated file) are dropped
// rather than served torn. Neither file is created here: both appear
// with the first put.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	s := &Store{
		dir:       dir,
		frames:    make(map[Spec]string),
		blobs:     make(map[string]blobRef),
		newFrames: make(map[Spec]string),
		newBlobs:  make(map[string]blobRef),
		cache:     newLRUCache(64 << 20),
	}
	switch seg, err := os.OpenFile(filepath.Join(dir, segmentFile), os.O_RDWR, 0o644); {
	case err == nil:
		fi, err := seg.Stat()
		if err != nil {
			seg.Close()
			return nil, fmt.Errorf("imagestore: %w", err)
		}
		s.seg, s.segSize = seg, fi.Size()
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("imagestore: %w", err)
	}
	var bad, err error
	header := true
	s.idx, err = recovery.OpenLog(filepath.Join(dir, indexName), func(p []byte) bool {
		if header {
			header = false
			if string(p) != indexHeader {
				bad = fmt.Errorf("first record is not the %q header", indexHeader)
			}
		} else if sp, digest, ref, err := decodePutRecord(p); err != nil {
			bad = err
		} else {
			s.blobs[digest], s.frames[sp] = ref, digest
		}
		return bad == nil
	})
	if bad != nil {
		err = fmt.Errorf("%w: %s: %v", ErrCorruptIndex, indexName, bad)
	}
	if err != nil {
		s.seg.Close()
		return nil, err
	}
	for digest, ref := range s.blobs {
		if ref.Off < 0 || ref.Len <= 0 || ref.Len > s.segSize-ref.Off {
			s.dropped.Add(1)
			delete(s.blobs, digest)
		}
	}
	for sp, digest := range s.frames {
		if _, ok := s.blobs[digest]; !ok {
			s.dropped.Add(1)
			delete(s.frames, sp)
			continue
		}
		if sp.Step > s.latest {
			s.latest = sp.Step
		}
	}
	return s, nil
}

// PutFrames encodes one step's rendered frames to PNG and stores each
// under (variable, step, its camera) as one group commit, returning the
// content digests in frame order. The frames' pixels are read but not
// retained; the caller keeps ownership of the images.
func (s *Store) PutFrames(variable string, step int, frames []render.Frame) ([]string, error) {
	return s.commit(len(frames), func(dst []byte, i int) (Spec, []byte, error) {
		dst, err := frames[i].Img.AppendPNG(dst)
		return Spec{Var: variable, Step: step, Cam: frames[i].Cam}, dst, err
	})
}

// Put stores png under sp and returns its content digest. The bytes
// are copied: the caller keeps ownership of png and may reuse it as
// soon as Put returns. A blob already present (same digest) is indexed
// without a second append; re-putting an identical frame under the
// same spec is an idempotent no-op.
func (s *Store) Put(sp Spec, png []byte) (string, error) {
	digests, err := s.commit(1, func(dst []byte, _ int) (Spec, []byte, error) {
		return sp, append(dst, png...), nil
	})
	if err != nil {
		return "", err
	}
	return digests[0], nil
}

// commit is the one write path. frame(dst, i) appends frame i's PNG to
// dst and names its spec; commit makes it the frame under that spec,
// for every i < n, all or none. Each PNG is hashed where it lands in
// segBuf, and cut back off if already stored. New blobs go to the
// segment in one write and one fsync, the index records in one log
// append and one fsync, and only then — every byte durable — are the
// frames published to the maps, Latest and the counters (not to the
// cache, which fills on reads). The scratch is the store's, so only
// the returned digests are allocated. On an error nothing was
// published and the segment offset did not advance, so the call can be
// retried as is.
func (s *Store) commit(n int, frame func(dst []byte, i int) (Spec, []byte, error)) ([]string, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// What this commit adds on top of the published maps. Only writers
	// change those and wmu admits one writer, so they are read here
	// without mu and stay as read until the publish below.
	clear(s.newFrames)
	clear(s.newBlobs)
	s.segBuf, s.recBuf, s.records = s.segBuf[:0], s.recBuf[:0], s.records[:0]
	if s.idx.Size() == 0 {
		s.records = append(s.records, []byte(indexHeader))
	}
	header := len(s.records)
	digests := make([]string, n)
	var puts, dedups int64
	for i := range digests {
		off := len(s.segBuf)
		sp, buf, err := frame(s.segBuf, i)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// A set's frames share one size: room for the rest at once,
			// not a regrow per frame, the first time the buffer is short.
			buf = slices.Grow(buf, (n-1)*len(buf))
		}
		s.segBuf = buf
		png := buf[off:]
		if err := sp.validate(); err != nil {
			return nil, err
		}
		if len(png) == 0 {
			return nil, fmt.Errorf("imagestore: empty frame for %s", sp.Key())
		}
		sum := sha256.Sum256(png)
		digest := digestString(sum[:])
		digests[i] = digest
		prev, ok := s.newFrames[sp]
		if !ok {
			prev, ok = s.frames[sp]
		}
		if ok && prev == digest {
			dedups++
			s.segBuf = buf[:off]
			continue
		}
		ref, ok := s.newBlobs[digest]
		if !ok {
			ref, ok = s.blobs[digest]
		}
		if ok {
			dedups++
			s.segBuf = buf[:off]
		} else {
			ref = blobRef{Off: s.segSize + int64(off), Len: int64(len(png))}
			s.newBlobs[digest] = ref
		}
		puts++
		s.newFrames[sp] = digest
		// A record's bytes stay put when recBuf outgrows its array: the
		// next append copies them and writes only past them.
		rec := len(s.recBuf)
		s.recBuf = appendPutRecord(s.recBuf, sp, sum, ref)
		s.records = append(s.records, s.recBuf[rec:])
	}

	if len(s.segBuf) > 0 {
		if s.seg == nil {
			// The first blob creates the segment; index.log's creation,
			// next, fsyncs the directory entry of both.
			seg, err := os.OpenFile(filepath.Join(s.dir, segmentFile), os.O_CREATE|os.O_RDWR, 0o644)
			if err != nil {
				return nil, fmt.Errorf("imagestore: %w", err)
			}
			s.mu.Lock()
			s.seg = seg
			s.mu.Unlock()
		}
		if _, err := s.seg.WriteAt(s.segBuf, s.segSize); err != nil {
			return nil, fmt.Errorf("imagestore: append segment: %w", err)
		}
		if err := s.seg.Sync(); err != nil {
			return nil, fmt.Errorf("imagestore: sync segment: %w", err)
		}
	}
	if len(s.records) > header {
		if err := s.idx.Append(s.records...); err != nil {
			return nil, fmt.Errorf("imagestore: append index: %w", err)
		}
	}

	s.mu.Lock()
	for digest, ref := range s.newBlobs {
		s.blobs[digest] = ref
	}
	for sp, digest := range s.newFrames {
		s.frames[sp] = digest
		if sp.Step > s.latest {
			s.latest = sp.Step
		}
	}
	s.segSize += int64(len(s.segBuf))
	s.mu.Unlock()
	s.puts.Add(puts)
	s.dedups.Add(dedups)
	return digests, nil
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
// read cache when possible; a miss reads the segment into a fresh
// slice and caches that. The returned slice must be treated as
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

// Stats are the store's lifetime counters. Info carries its frames,
// blobs and segment bytes.
type Stats struct {
	Puts        int64 // frames indexed
	Dedups      int64 // puts served by an existing blob
	Dropped     int64 // index entries dropped at open (torn segment)
	CacheHits   int64
	CacheMisses int64
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:        s.puts.Load(),
		Dedups:      s.dedups.Load(),
		Dropped:     s.dropped.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMiss.Load(),
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

// Close syncs and closes the segment and releases index.log's
// descriptor. Every put was durable when it returned.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Sync()
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	if cerr := s.idx.Close(); err == nil {
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
