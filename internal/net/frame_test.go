package net

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"op2hpx/internal/dist"
)

// wireFrame encodes one frame from rank src the way the transport's
// writers do.
func wireFrame(typ byte, src int, payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(payload))
	putHeader(b, typ, src, len(payload))
	return append(b, payload...)
}

// FuzzReadFrame feeds the inbound frame decoder arbitrary byte streams
// from rank 1, seeded with a healthy stream of every frame type and the
// damage the transport's fault tests inflict on it: a stream cut
// mid-header and mid-payload (the truncation fault), bit flips in the
// header fields, a frame claiming another sender, an oversized length,
// a halo payload that is not whole float64s, an unknown frame type.
//
// The decoder must never panic. Every frame it accepts must re-encode
// to exactly the bytes it consumed. It may stop only with io.EOF at a
// frame boundary or io.ErrUnexpectedEOF inside a header (the connection
// ending, which the transport classifies), or with an error wrapping
// dist.ErrHaloCorrupt. It never asks for a buffer larger than
// maxFramePayload, and its payload buffer grows no faster than the
// bytes that arrive.
func FuzzReadFrame(f *testing.F) {
	const peer = 1
	halo := encodeFloats(nil, []float64{7, -1.5, 3e300})
	var healthy []byte
	for _, fr := range [][]byte{
		wireFrame(fHeartbeat, peer, nil),
		wireFrame(fHalo, peer, halo),
		wireFrame(fCtl, peer, halo[:8]),
		wireFrame(fBarrier, peer, nil),
		wireFrame(fAbort, peer, []byte("rank 1 failed")),
		wireFrame(fGoodbye, peer, nil),
	} {
		healthy = append(healthy, fr...)
	}
	f.Add(healthy)
	for _, cut := range []int{0, 4, headerLen, headerLen + 1, 2*headerLen + 12, len(healthy) / 2, len(healthy) - 1} {
		f.Add(healthy[:cut])
	}
	for _, i := range []int{0, 1, 5, 8, headerLen + 3} {
		b := append([]byte(nil), healthy...)
		b[i] ^= 0x40
		f.Add(b)
	}
	f.Add(wireFrame(fHalo, peer+1, halo))
	f.Add(wireFrame(fHalo, peer, halo[:13]))
	f.Add(wireFrame(fHello, peer, nil))
	f.Add(wireFrame(0xff, peer, halo))
	oversized := wireFrame(fHalo, peer, nil)
	putHeader(oversized, fHalo, peer, maxFramePayload+1)
	f.Add(oversized)
	huge := wireFrame(fHalo, peer, halo)
	putHeader(huge, fHalo, peer, maxFramePayload)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, in []byte) {
		r := &frameReader{br: bufio.NewReader(bytes.NewReader(in)), peer: peer}
		floats := func(src, n int) []float64 {
			if src != peer || n < 0 || 8*n > maxFramePayload {
				t.Fatalf("decoder asked for %d float64s from rank %d", n, src)
			}
			return make([]float64, 0, n)
		}
		consumed := 0
		for {
			fr, err := r.next(floats)
			if fr.wire < 0 || consumed+fr.wire > len(in) {
				t.Fatalf("frame claims %d wire bytes at offset %d of %d", fr.wire, consumed, len(in))
			}
			consumed += fr.wire
			if c := cap(r.buf); c > maxFramePayload || c > 2*len(in)+2*payloadGrowth {
				t.Fatalf("payload buffer grew to %d bytes on a %d-byte stream", c, len(in))
			}
			if err != nil {
				switch {
				case errors.Is(err, dist.ErrHaloCorrupt):
				case errors.Is(err, io.EOF) && fr.wire == 0 && consumed == len(in):
				case errors.Is(err, io.ErrUnexpectedEOF) && fr.wire == 0 && len(in)-consumed < headerLen:
				default:
					t.Fatalf("at offset %d of %d: untyped error %v", consumed, len(in), err)
				}
				return
			}
			payload := fr.payload
			if fr.typ == fHalo || fr.typ == fCtl {
				payload = encodeFloats(nil, fr.floats)
			}
			if got, want := wireFrame(fr.typ, fr.src, payload), in[consumed-fr.wire:consumed]; !bytes.Equal(got, want) {
				t.Fatalf("accepted frame does not re-encode to its bytes:\n  in %x\n out %x", want, got)
			}
		}
	})
}
