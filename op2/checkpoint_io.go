package op2

// Durable checkpoints: the on-disk half of job recovery. The in-memory
// Checkpoint survives a failed ATTEMPT; the encoding here survives a
// failed PROCESS — op2serve persists every periodic and drain
// checkpoint into a directory store, and a restarted server resumes
// jobs from the last file instead of step 0.
//
// The format is versioned and checksummed, and the loader trusts
// nothing: a truncated file, a flipped byte, a wrong magic, an
// implausible section length — every damage mode is a typed
// ErrCheckpointCorrupt, never a silent restore of wrong state (a
// corrupt restore would "recover" into a bitwise-divergent run, the
// exact failure checkpointing exists to prevent).
//
// Layout (all integers little-endian):
//
//	[8]  magic "OP2CKPT\n"
//	[4]  format version (currently 1)
//	[8]  step counter
//	[4]  dat count    then per dat:    [4] name len, name, [8] value count, values
//	[4]  global count then per global: same
//	[8]  CRC-64/ECMA of everything above

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrCheckpointCorrupt marks a checkpoint file the loader refused:
// damaged framing, a checksum mismatch, or a version this build cannot
// decode. Testable with errors.Is.
var ErrCheckpointCorrupt = errors.New("op2: checkpoint corrupt")

const (
	ckptMagic   = "OP2CKPT\n"
	ckptVersion = 1

	// ckptMaxSection bounds one name or value-vector length claim: far
	// above any real mesh, low enough that a corrupt length field cannot
	// drive a multi-gigabyte allocation before the checksum would catch it.
	ckptMaxName    = 4096
	ckptMaxSection = 1 << 31
)

var ckptTable = crc64.MakeTable(crc64.ECMA)

// WriteTo encodes the checkpoint (versioned, checksummed); it
// implements io.WriterTo. Sections are written in sorted name order so
// identical state always produces identical bytes. The encoding goes
// through one buffered writer, so a save costs a handful of Write calls
// on w rather than one per value.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	h := crc64.New(ckptTable)
	bw := bufio.NewWriterSize(w, 64<<10)
	cw := &countWriter{w: io.MultiWriter(bw, h)}

	write := func(b []byte) {
		if cw.err == nil {
			cw.Write(b) //nolint:errcheck // countWriter latches the error
		}
	}
	var u4 [4]byte
	var u8 [8]byte
	var batch [4096]byte
	putU32 := func(v uint32) { binary.LittleEndian.PutUint32(u4[:], v); write(u4[:]) }
	putU64 := func(v uint64) { binary.LittleEndian.PutUint64(u8[:], v); write(u8[:]) }

	write([]byte(ckptMagic))
	putU32(ckptVersion)
	putU64(uint64(cp.Step))

	section := func(m map[string][]float64) {
		putU32(uint32(len(m)))
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			putU32(uint32(len(name)))
			write([]byte(name))
			vals := m[name]
			putU64(uint64(len(vals)))
			// Values go out in batches, one Write (and one checksum
			// update) per batch.
			for len(vals) > 0 {
				k := min(len(vals), len(batch)/8)
				for i, v := range vals[:k] {
					binary.LittleEndian.PutUint64(batch[8*i:], math.Float64bits(v))
				}
				write(batch[:8*k])
				vals = vals[k:]
			}
		}
	}
	section(cp.dats)
	section(cp.gbls)

	sum := h.Sum64()
	binary.LittleEndian.PutUint64(u8[:], sum)
	if cw.err == nil {
		cw.err = bw.Flush()
	}
	if cw.err == nil {
		cw.w = w // the trailer is not part of its own checksum
		write(u8[:])
	}
	return cw.n, cw.err
}

// countWriter tracks bytes written and latches the first error.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(b []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
	return n, err
}

// corruptf builds a typed loader rejection.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
}

// ReadCheckpoint decodes a checkpoint written by WriteTo, verifying the
// magic, version, every length field, the canonical (ascending, unique)
// name order, the trailing checksum and that nothing follows it. Any
// violation is ErrCheckpointCorrupt, so every accepted input re-encodes
// to exactly its own bytes.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	h := crc64.New(ckptTable)
	tr := io.TeeReader(r, h)

	var u4 [4]byte
	var u8 [8]byte
	var batch [4096]byte
	readU32 := func() (uint32, error) {
		_, err := io.ReadFull(tr, u4[:])
		return binary.LittleEndian.Uint32(u4[:]), err
	}
	readU64 := func() (uint64, error) {
		_, err := io.ReadFull(tr, u8[:])
		return binary.LittleEndian.Uint64(u8[:]), err
	}

	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, corruptf("short read in header: %v", err)
	}
	if string(magic) != ckptMagic {
		return nil, corruptf("bad magic %q", magic)
	}
	ver, err := readU32()
	if err != nil {
		return nil, corruptf("short read at version: %v", err)
	}
	if ver != ckptVersion {
		return nil, corruptf("format version %d, this build reads %d", ver, ckptVersion)
	}
	step, err := readU64()
	if err != nil {
		return nil, corruptf("short read at step: %v", err)
	}

	section := func(kind string) (map[string][]float64, error) {
		count, err := readU32()
		if err != nil {
			return nil, corruptf("short read at %s count: %v", kind, err)
		}
		if count > ckptMaxSection {
			return nil, corruptf("implausible %s count %d", kind, count)
		}
		m := make(map[string][]float64, min(count, 1024))
		prev := ""
		for i := uint32(0); i < count; i++ {
			nameLen, err := readU32()
			if err != nil {
				return nil, corruptf("short read at %s %d name length: %v", kind, i, err)
			}
			if nameLen == 0 || nameLen > ckptMaxName {
				return nil, corruptf("implausible %s name length %d", kind, nameLen)
			}
			name := make([]byte, nameLen)
			if _, err := io.ReadFull(tr, name); err != nil {
				return nil, corruptf("short read in %s name: %v", kind, err)
			}
			if i > 0 && string(name) <= prev {
				return nil, corruptf("%s %q out of order after %q (duplicate or unsorted)", kind, name, prev)
			}
			prev = string(name)
			n, err := readU64()
			if err != nil {
				return nil, corruptf("short read at %s %q length: %v", kind, name, err)
			}
			if n > ckptMaxSection {
				return nil, corruptf("implausible %s %q length %d", kind, name, n)
			}
			// Values are read in batches and the slice grows only with
			// data actually present, so a corrupt length cannot drive a
			// large allocation before the short read catches it.
			vals := make([]float64, 0, min(n, uint64(len(batch)/8)))
			for rem := n; rem > 0; {
				k := min(rem, uint64(len(batch)/8))
				if _, err := io.ReadFull(tr, batch[:8*k]); err != nil {
					return nil, corruptf("truncated inside %s %q (%d of %d values): %v", kind, name, len(vals), n, err)
				}
				for i := uint64(0); i < k; i++ {
					vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(batch[8*i:])))
				}
				rem -= k
			}
			m[string(name)] = vals
		}
		return m, nil
	}

	dats, err := section("dat")
	if err != nil {
		return nil, err
	}
	gbls, err := section("global")
	if err != nil {
		return nil, err
	}

	want := h.Sum64() // everything read so far; the trailer is outside it
	var trailer [8]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, corruptf("missing checksum trailer: %v", err)
	}
	if got := binary.LittleEndian.Uint64(trailer[:]); got != want {
		return nil, corruptf("checksum mismatch: file says %016x, content hashes to %016x", got, want)
	}
	if _, err := io.ReadFull(r, trailer[:1]); err != io.EOF {
		return nil, corruptf("trailing data after the checksum")
	}
	return &Checkpoint{Step: int(step), dats: dats, gbls: gbls}, nil
}

// CheckpointStore persists job checkpoints across process restarts.
// Save must be atomic (a crash mid-save leaves the previous checkpoint
// readable); Load returns (nil, nil) when the store has nothing for the
// job and a typed error — ErrCheckpointCorrupt wrapped — when what it
// has cannot be trusted.
type CheckpointStore interface {
	Save(job string, cp *Checkpoint) error
	Load(job string) (*Checkpoint, error)
}

// DirCheckpoints is the file-per-job CheckpointStore: <dir>/<job>.ckpt,
// written to a temp file and renamed, so a reader never observes a
// partial write and a crash mid-save preserves the previous file.
type DirCheckpoints struct {
	dir string
}

// NewDirCheckpoints opens (creating if needed) a directory store.
func NewDirCheckpoints(dir string) (*DirCheckpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("op2: checkpoint dir: %w", err)
	}
	return &DirCheckpoints{dir: dir}, nil
}

// path maps a job name to its file, flattening path separators so a job
// name can never escape the store directory.
func (s *DirCheckpoints) path(job string) string {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', 0:
			return '_'
		}
		return r
	}, job)
	if clean == "" || clean == "." || clean == ".." {
		clean = "job"
	}
	return filepath.Join(s.dir, clean+".ckpt")
}

// Save writes the checkpoint atomically.
func (s *DirCheckpoints) Save(job string, cp *Checkpoint) error {
	final := s.path(job)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(final)+".tmp*")
	if err != nil {
		return fmt.Errorf("op2: checkpoint save %q: %w", job, err)
	}
	if _, err := cp.WriteTo(tmp); err != nil {
		tmp.Close()           //nolint:errcheck // write error is the cause
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("op2: checkpoint save %q: %w", job, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("op2: checkpoint save %q: %w", job, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("op2: checkpoint save %q: %w", job, err)
	}
	return nil
}

// Load reads the job's checkpoint: (nil, nil) when none exists, a typed
// ErrCheckpointCorrupt when the file cannot be trusted.
func (s *DirCheckpoints) Load(job string) (*Checkpoint, error) {
	f, err := os.Open(s.path(job))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("op2: checkpoint load %q: %w", job, err)
	}
	defer f.Close() //nolint:errcheck // read-only
	cp, err := ReadCheckpoint(bufio.NewReaderSize(f, 64<<10))
	if err != nil {
		return nil, fmt.Errorf("op2: checkpoint load %q: %w", job, err)
	}
	return cp, nil
}

var _ CheckpointStore = (*DirCheckpoints)(nil)
