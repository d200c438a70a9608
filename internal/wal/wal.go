// Package wal implements the write-ahead log behind gkserved's mutation
// endpoints: an append-only file of length-prefixed, CRC-checked records,
// fsync'd before any write is acknowledged, and replayed on startup to
// restore inserts and deletes that have not yet been folded into a
// persisted index checkpoint, along with the shards that memtable flushes
// built from them (ops.go lists the record kinds). A log is never cut in
// place: after a checkpoint the serving layer writes a fresh log holding
// only what the checkpoint does not cover and renames it over the old one.
//
// File layout (all little-endian):
//
//	uint32  magic "GKWL"
//	uint32  format version (1)
//	records: each { uint32 payload length, uint32 CRC-32 (IEEE) of the
//	          payload, payload bytes }
//
// A record is valid only when its full payload is present and matches its
// CRC; Scan never delivers a partial or corrupt record to the caller. A
// torn tail — the expected artefact of a crash mid-append — is detected
// by Open and truncated away, so the log always resumes from the last
// fully durable record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

const (
	magic      = uint32(0x474b574c) // "GKWL"
	version    = uint32(1)
	headerSize = 8
	frameSize  = 8 // length + CRC prefix of every record

	// MaxRecord bounds one record's payload so a corrupt length field
	// cannot demand an absurd allocation.
	MaxRecord = 256 << 20
)

// ErrCorrupt marks a record that cannot be trusted: truncated mid-frame,
// an implausible length, or a CRC mismatch. Nothing at or after the
// corruption is replayed.
var ErrCorrupt = errors.New("wal: corrupt record")

// Scan reads framed records from r, invoking fn with each fully verified
// payload. It returns the number of records delivered and the byte offset
// just past the last valid record. A clean end of input returns a nil
// error; malformed input returns an error wrapping ErrCorrupt; an fn
// error aborts the scan and is returned as-is. The payload slice is
// reused across calls — fn must not retain it.
func Scan(r io.Reader, fn func(payload []byte) error) (n int, consumed int64, err error) {
	var frame [frameSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if err == io.EOF {
				return n, consumed, nil
			}
			return n, consumed, fmt.Errorf("%w: truncated frame header after record %d", ErrCorrupt, n)
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length == 0 || length > MaxRecord {
			return n, consumed, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, length)
		}
		if uint32(cap(buf)) < length {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return n, consumed, fmt.Errorf("%w: truncated payload in record %d", ErrCorrupt, n)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return n, consumed, fmt.Errorf("%w: CRC mismatch in record %d (stored %#x, computed %#x)", ErrCorrupt, n, sum, got)
		}
		if err := fn(payload); err != nil {
			return n, consumed, err
		}
		n++
		consumed += frameSize + int64(length)
	}
}

// Log is an open write-ahead log file. All methods are safe for
// concurrent use; Append only returns after the record is fsync'd, so an
// acknowledged write survives any crash. A log only grows: the serving
// layer sheds the records an index checkpoint covers by writing a fresh
// log and renaming it over this one.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	end     int64 // write offset: headerSize + bytes of valid records
	records int
}

// Open opens (or creates) the log at path. An existing log is scanned to
// the last fully valid record; a torn tail — the artefact of a crash
// mid-append — is truncated away so appends resume from a durable state.
// A file that is not a WAL at all is refused rather than clobbered.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path, end: headerSize}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], magic)
		binary.LittleEndian.PutUint32(hdr[4:8], version)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: writing header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing header: %w", err)
		}
		return l, nil
	}
	if err := readHeader(f); err != nil {
		f.Close()
		return nil, err
	}
	n, consumed, err := Scan(f, func([]byte) error { return nil })
	l.records = n
	l.end = headerSize + consumed
	if err != nil {
		// Only corruption can surface here (the discard fn never fails):
		// drop the unusable tail so the next append lands after the last
		// record that was ever acknowledged.
		if terr := f.Truncate(l.end); terr != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating corrupt tail: %v (after %w)", terr, err)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing truncation: %w", serr)
		}
	}
	if _, err := f.Seek(l.end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func readHeader(f *os.File) error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("wal: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != magic {
		return fmt.Errorf("wal: bad magic %#x (not a WAL file)", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return fmt.Errorf("wal: unsupported version %d (want %d)", v, version)
	}
	return nil
}

// Append frames payload, writes it and fsyncs before returning: once
// Append returns nil the record will be replayed by every future Open,
// which is what lets the serving layer acknowledge a mutation.
func (l *Log) Append(payload []byte) error { return l.append(payload, true) }

// AppendUnsynced is Append without the fsync: the record is durable once a
// later Append returns (its fsync covers every byte written before it) and
// may be lost or torn by a crash before that, which Open then trims like
// any torn tail. It is for records whose loss costs time, never data.
func (l *Log) AppendUnsynced(payload []byte) error { return l.append(payload, false) }

func (l *Log) append(payload []byte, sync bool) error {
	if len(payload) == 0 || len(payload) > MaxRecord {
		return fmt.Errorf("wal: record payload of %d bytes (want 1..%d)", len(payload), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := make([]byte, frameSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[frameSize:], payload)
	if _, err := l.f.WriteAt(rec, l.end); err != nil {
		return fmt.Errorf("wal: appending record: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing record: %w", err)
		}
	}
	l.end += int64(len(rec))
	l.records++
	return nil
}

// Replay re-reads the log from the start and invokes fn with every valid
// record payload in append order. Corruption mid-log aborts with an
// ErrCorrupt-wrapped error (Open already trims torn tails, so this means
// the file changed underneath the process).
func (l *Log) Replay(fn func(payload []byte) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	if err := readHeader(l.f); err != nil {
		return 0, err
	}
	n, _, err := Scan(io.LimitReader(l.f, l.end-headerSize), fn)
	if _, serr := l.f.Seek(l.end, io.SeekStart); serr != nil && err == nil {
		err = serr
	}
	return n, err
}

// Records returns the number of valid records currently in the log.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the underlying file. The log is unusable afterwards.
func (l *Log) Close() error { return l.f.Close() }
