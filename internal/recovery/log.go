package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Log is an append-only file of CRC frames,
//
//	[uint32 length | uint32 crc32(IEEE) of payload | payload]*
//
// little-endian: the one durable-append primitive under the step
// journal (journal.wal) and the image index (imagestore's index.log).
// An append is one O_APPEND write plus one fsync whatever the file's
// length. The good prefix — every frame up to the first one that is
// truncated, fails its CRC, or that the owner's replay rejects — is
// trusted; nothing after it is, and the first append cuts that tail off
// so the frames written after it stay reachable.
//
// A Log is not safe for concurrent use: the journal and the store each
// serialise appends on a mutex of their own. Fsyncs alone may be read
// from any goroutine.
type Log struct {
	path   string
	onDisk bool     // the file existed at OpenLog, or an append has created it
	size   int64    // bytes of the good prefix
	f      *os.File // nil until the first Append and again after Close
	buf    []byte   // frame scratch, reused across appends

	fsyncs atomic.Int64
}

const frameHeader = 8

// OpenLog reads the log at path and hands the payload of each intact
// frame to replay, in order; the slice aliases the read buffer and is
// only valid during the call. replay returning false ends the good
// prefix before that frame. A missing file is an empty log. OpenLog
// creates, opens and modifies nothing: the file is created (and its
// directory fsynced) or its torn tail truncated by the first Append.
func OpenLog(path string, replay func(payload []byte) bool) (*Log, error) {
	l := &Log{path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return l, nil
		}
		return nil, fmt.Errorf("recovery: read log: %w", err)
	}
	l.onDisk = true
	for rest := data; len(rest) >= frameHeader; {
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > int64(len(rest)-frameHeader) {
			break
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum || !replay(payload) {
			break
		}
		rest = rest[frameHeader+n:]
		l.size = int64(len(data) - len(rest))
	}
	return l, nil
}

// Size returns the length in bytes of the log's good prefix: what
// OpenLog replayed plus every append since.
func (l *Log) Size() int64 { return l.size }

// Fsyncs returns the number of fsync calls the log has issued: one per
// append, plus one on the directory when an append created the file.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }

// Append frames the payloads and writes them with one write and one
// fsync; they are durable, all of them, when it returns nil. After an
// error nothing is appended as far as a reopen can tell — whatever part
// of the write landed is a torn tail the next Append truncates first —
// so the call can simply be retried.
func (l *Log) Append(payloads ...[]byte) error {
	if l.f == nil {
		if err := l.openFile(); err != nil {
			return err
		}
	}
	buf := l.buf[:0]
	for _, p := range payloads {
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(p))
		buf = append(append(buf, hdr[:]...), p...)
	}
	l.buf = buf
	_, err := l.f.Write(buf)
	if err == nil {
		l.fsyncs.Add(1)
		err = l.f.Sync()
	}
	if err != nil {
		l.f.Close()
		l.f = nil // reopening truncates back to the good prefix
		return fmt.Errorf("recovery: append %s: %w", filepath.Base(l.path), err)
	}
	l.size += int64(len(buf))
	return nil
}

// openFile opens the log for appending, creating it (and making the
// new directory entry durable) when it does not exist, and cuts off
// whatever follows the good prefix.
func (l *Log) openFile() error {
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("recovery: open log: %w", err)
	}
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return fmt.Errorf("recovery: truncate torn tail of %s: %w", filepath.Base(l.path), err)
	}
	if !l.onDisk {
		l.fsyncs.Add(1)
		syncDir(filepath.Dir(l.path))
		l.onDisk = true
	}
	l.f = f
	return nil
}

// Close releases the file descriptor. Every append was fsynced before
// it returned, so there is nothing to flush; a later Append reopens
// the file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// syncDir fsyncs a directory so a file just created in or renamed into
// it survives a crash. Best effort: some filesystems refuse it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
