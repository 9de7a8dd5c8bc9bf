package op2_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"op2hpx/op2"
)

// encodeCkpt renders a checkpoint to bytes, failing the test on error.
func encodeCkpt(t testing.TB, cp *op2.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := cp.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// decayCkpt runs the decay program cut steps and snapshots it.
func decayCkpt(t testing.TB, cut int) *op2.Checkpoint {
	t.Helper()
	rt := op2.MustNew()
	defer rt.Close()
	step, _ := newDecay(t, rt)
	for i := 0; i < cut; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := rt.Checkpoint(cut)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCheckpointFileRoundTrip: encode → decode → continue the run on a
// fresh runtime; the continuation must match the uninterrupted reference
// bit for bit, and re-encoding the decoded checkpoint must reproduce the
// exact bytes (the format is canonical: sorted sections, fixed layout).
func TestCheckpointFileRoundTrip(t *testing.T) {
	const total, cut = 9, 4

	refRT := op2.MustNew()
	refStep, refBits := newDecay(t, refRT)
	for i := 0; i < total; i++ {
		if err := refStep(); err != nil {
			t.Fatal(err)
		}
	}
	refRes, refQ := refBits()
	refRT.Close() //nolint:errcheck

	raw := encodeCkpt(t, decayCkpt(t, cut))
	cp, err := op2.ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if cp.Step != cut {
		t.Fatalf("decoded step = %d, want %d", cp.Step, cut)
	}
	if again := encodeCkpt(t, cp); !bytes.Equal(again, raw) {
		t.Fatal("decode→encode is not byte-identical")
	}

	rt := op2.MustNew()
	defer rt.Close()
	step, bits := newDecay(t, rt)
	if err := rt.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < total; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	gotRes, gotQ := bits()
	if gotRes != refRes {
		t.Fatalf("residual bits %#x != reference %#x", gotRes, refRes)
	}
	for i := range gotQ {
		if gotQ[i] != refQ[i] {
			t.Fatalf("q[%d] bits differ after a file round trip", i)
		}
	}
}

// TestCheckpointLoaderRejectsDamage: every way a checkpoint file can be
// damaged — truncation at EVERY byte offset, a flipped content byte, a
// flipped checksum byte, wrong magic, an unknown version, an implausible
// length claim — yields a typed ErrCheckpointCorrupt, never a decoded
// checkpoint and never a panic.
func TestCheckpointLoaderRejectsDamage(t *testing.T) {
	raw := encodeCkpt(t, decayCkpt(t, 3))

	mustCorrupt := func(label string, b []byte) {
		t.Helper()
		cp, err := op2.ReadCheckpoint(bytes.NewReader(b))
		if !errors.Is(err, op2.ErrCheckpointCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCheckpointCorrupt", label, err)
		}
		if cp != nil {
			t.Fatalf("%s: loader returned a checkpoint alongside the error", label)
		}
	}

	for cut := 0; cut < len(raw); cut++ {
		mustCorrupt("truncated", raw[:cut])
	}

	flip := func(i int) []byte {
		b := append([]byte(nil), raw...)
		b[i] ^= 0x40
		return b
	}
	mustCorrupt("bad magic", flip(0))
	mustCorrupt("unknown version", flip(8))
	mustCorrupt("flipped content byte", flip(len(raw)/2))
	mustCorrupt("flipped checksum byte", flip(len(raw)-1))

	// An absurd dat count (offset 20: after magic, version, step) must be
	// rejected by the plausibility bound before it can drive allocation.
	huge := append([]byte(nil), raw...)
	huge[20], huge[21], huge[22], huge[23] = 0xff, 0xff, 0xff, 0xff
	mustCorrupt("implausible section count", huge)
}

// TestDirCheckpointsStore: the file-per-job store round-trips, reports
// absence as (nil, nil), refuses damaged files typed, and keeps hostile
// job names inside its directory.
func TestDirCheckpointsStore(t *testing.T) {
	dir := t.TempDir()
	store, err := op2.NewDirCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}

	cp := decayCkpt(t, 5)
	if err := store.Save("jobA", cp); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load("jobA")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Step != 5 {
		t.Fatalf("Load = %+v, want step 5", got)
	}
	if !bytes.Equal(encodeCkpt(t, got), encodeCkpt(t, cp)) {
		t.Fatal("store round trip changed the checkpoint")
	}

	if got, err := store.Load("never-saved"); err != nil || got != nil {
		t.Fatalf("Load(absent) = %v, %v; want nil, nil", got, err)
	}

	// A traversal-shaped name must land inside dir, not climb out of it.
	evil := "../../etc/passwd"
	if err := store.Save(evil, cp); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("store dir holds %d files, want 2 (the evil name escaped?)", len(entries))
	}
	if got, err := store.Load(evil); err != nil || got == nil {
		t.Fatalf("Load(evil) = %v, %v", got, err)
	}

	// Damage the file on disk: the next Load must fail typed, and a
	// Submit preloading it must surface the same sentinel.
	path := filepath.Join(dir, "jobA.ckpt")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("jobA"); !errors.Is(err, op2.ErrCheckpointCorrupt) {
		t.Fatalf("Load(truncated file) = %v, want ErrCheckpointCorrupt", err)
	}

	sv := op2.NewService(op2.ServiceConfig{})
	defer sv.Close() //nolint:errcheck
	_, err = sv.Submit(t.Context(), op2.JobSpec{
		Name:  "jobA",
		Iters: 1,
		Setup: func(rt *op2.Runtime) (*op2.Step, error) {
			t.Error("Setup ran despite a corrupt checkpoint")
			return nil, nil
		},
		CheckpointStore: store,
	})
	if !errors.Is(err, op2.ErrCheckpointCorrupt) {
		t.Fatalf("Submit over a corrupt checkpoint = %v, want ErrCheckpointCorrupt", err)
	}
}

// goldenCkptV1 is the format-1 encoding of goldenCkpt's state: step 7,
// dat "q" = [1.5, -2], global "g" = [0.25], CRC-64/ECMA trailer.
const goldenCkptV1 = "4f5032434b50540a" + // magic "OP2CKPT\n"
	"01000000" + // version 1
	"0700000000000000" + // step 7
	"01000000" + "01000000" + "71" + "0200000000000000" + // 1 dat: "q", 2 values
	"000000000000f83f" + "00000000000000c0" + // 1.5, -2
	"01000000" + "01000000" + "67" + "0100000000000000" + // 1 global: "g", 1 value
	"000000000000d03f" + // 0.25
	"0e6376c176b32b6c" // checksum

// goldenCkpt checkpoints a two-cell dat and a global at step 7.
func goldenCkpt(t testing.TB) *op2.Checkpoint {
	t.Helper()
	rt := op2.MustNew(op2.WithBackend(op2.Serial))
	defer rt.Close()
	cells := op2.MustDeclSet(2, "cells")
	q := op2.MustDeclDat(cells, 1, []float64{1.5, -2}, "q")
	g := op2.MustDeclGlobal(1, []float64{0.25}, "g")
	rt.ParLoop("touch", cells, op2.DirectArg(q, op2.Read), op2.GblArg(g, op2.Read)).Kernel(func([][]float64) {})
	cp, err := rt.Checkpoint(7)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestCheckpointEncodingGolden pins the on-disk bytes of format version
// 1: the buffered encoder must produce exactly what every earlier build
// wrote, and the decoder must accept it back.
func TestCheckpointEncodingGolden(t *testing.T) {
	raw := encodeCkpt(t, goldenCkpt(t))
	if got := hex.EncodeToString(raw); got != goldenCkptV1 {
		t.Fatalf("format-1 encoding changed:\n got %s\nwant %s", got, goldenCkptV1)
	}
	cp, err := op2.ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden bytes rejected: %v", err)
	}
	if cp.Step != 7 {
		t.Fatalf("golden step = %d, want 7", cp.Step)
	}
}

// FuzzReadCheckpoint feeds the decoder arbitrary bytes, seeded with a
// valid file and the truncation and bit-flip damage of
// TestCheckpointLoaderRejectsDamage. The decoder must never panic, must
// refuse anything it does not accept with ErrCheckpointCorrupt, and
// every input it accepts must re-encode to exactly its own bytes.
func FuzzReadCheckpoint(f *testing.F) {
	for _, raw := range [][]byte{encodeCkpt(f, goldenCkpt(f)), encodeCkpt(f, decayCkpt(f, 3))} {
		f.Add(raw)
		for _, cut := range []int{0, 7, 8, 12, 20, 24, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:cut])
		}
		for _, i := range []int{0, 8, 20, len(raw) / 2, len(raw) - 1} {
			b := append([]byte(nil), raw...)
			b[i] ^= 0x40
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		cp, err := op2.ReadCheckpoint(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, op2.ErrCheckpointCorrupt) {
				t.Fatalf("untyped rejection: %v", err)
			}
			if cp != nil {
				t.Fatal("loader returned a checkpoint alongside the error")
			}
			return
		}
		var out bytes.Buffer
		if _, err := cp.WriteTo(&out); err != nil {
			t.Fatalf("re-encoding an accepted checkpoint: %v", err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("accepted input does not re-encode to itself:\n  in %x\n out %x", in, out.Bytes())
		}
	})
}
