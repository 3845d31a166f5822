// Package snappy is a from-scratch LZ77-family block compressor in the
// spirit of Google Snappy, used by the paper's compression/decompression
// workloads (Figure 7(c)/(d)). The codec streams its input and output
// through page-sized windows of the simulated address space, so the paging
// system underneath sees snappy's real access pattern: a strictly
// sequential read of the source and a strictly sequential write of the
// destination, at memory speed. CPU cost is charged per byte at
// snappy-like rates.
//
// Format (little-endian, per 64 KiB block):
//
//	varint(uncompressed block length)
//	tags: 0b0xxxxxxx literal of length x+1 followed by the bytes
//	      0b1xxxxxxx copy; x+4 is the length, next 2 bytes the offset
package snappy

import (
	"encoding/binary"
	"fmt"

	"dilos/internal/sim"
	"dilos/internal/space"
)

// BlockSize is the compression window (Snappy uses 64 KiB blocks).
const BlockSize = 64 << 10

// CPU cost model: Snappy's published speeds on testbed-class cores are
// ≈250 MB/s compression and ≈500 MB/s decompression per core — 4 ns/B and
// 2 ns/B respectively.
const (
	CompressCostPerByte   = 4 * sim.Nanosecond
	DecompressCostPerByte = 2 * sim.Nanosecond
)

const (
	minCopyLen = 4
	maxCopyLen = 131 // 0x7f + 4
	maxLiteral = 128
	hashBits   = 14
	hashShift  = 32 - hashBits
	maxOffset  = 1 << 16
)

// Compress reads srcLen bytes at src (through sp), writes the compressed
// stream at dst, and returns the compressed length.
func Compress(sp space.Space, src uint64, srcLen uint64, dst uint64) uint64 {
	var out uint64
	block := make([]byte, BlockSize)
	for off := uint64(0); off < srcLen; off += BlockSize {
		n := srcLen - off
		if n > BlockSize {
			n = BlockSize
		}
		sp.Load(src+off, block[:n])
		comp := compressBlock(block[:n])
		sp.Compute(sim.Time(n) * CompressCostPerByte)
		sp.Store(dst+out, comp)
		out += uint64(len(comp))
	}
	return out
}

// Decompress reads the compressed stream (originally srcLen uncompressed
// bytes) at src and writes the original data at dst. Returns the number of
// bytes written.
func Decompress(sp space.Space, src uint64, compLen uint64, dst uint64) uint64 {
	var in, out uint64
	window := make([]byte, 0, BlockSize)
	hdr := make([]byte, binary.MaxVarintLen32)
	for in < compLen {
		// Read the block header (peek up to 5 bytes).
		peek := compLen - in
		if peek > uint64(len(hdr)) {
			peek = uint64(len(hdr))
		}
		sp.Load(src+in, hdr[:peek])
		blockLen, k := binary.Uvarint(hdr[:peek])
		if k <= 0 {
			panic("snappy: corrupt block header")
		}
		in += uint64(k)
		// Scan the body once to find its compressed length, then bulk-read.
		// (Streaming decoders read forward anyway; we fetch in page-sized
		// Loads via sp.Load's chunking.)
		body, consumed := decompressBody(sp, src+in, compLen-in, blockLen, window[:0])
		in += consumed
		sp.Compute(sim.Time(blockLen) * DecompressCostPerByte)
		sp.Store(dst+out, body)
		out += uint64(len(body))
	}
	return out
}

// compressBlock encodes one block with a greedy hash-table matcher.
func compressBlock(src []byte) []byte {
	out := make([]byte, 0, len(src)/2+16)
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	out = append(out, hdr[:n]...)

	var table [1 << hashBits]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	i := 0
	emitLiterals := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > maxLiteral {
				n = maxLiteral
			}
			out = append(out, byte(n-1))
			out = append(out, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	for i+minCopyLen <= len(src) {
		h := hash4(src[i:])
		cand := table[h]
		table[h] = int32(i)
		if cand >= 0 && i-int(cand) < maxOffset && match4(src, int(cand), i) {
			emitLiterals(i)
			length := minCopyLen
			for i+length < len(src) && length < maxCopyLen &&
				src[int(cand)+length] == src[i+length] {
				length++
			}
			offset := i - int(cand)
			out = append(out, 0x80|byte(length-minCopyLen),
				byte(offset), byte(offset>>8))
			i += length
			litStart = i
			continue
		}
		i++
	}
	emitLiterals(len(src))
	return out
}

func hash4(b []byte) uint32 {
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return (v * 0x1e35a7bd) >> hashShift
}

func match4(src []byte, a, b int) bool {
	return src[a] == src[b] && src[a+1] == src[b+1] &&
		src[a+2] == src[b+2] && src[a+3] == src[b+3]
}

// decompressBody decodes one block of blockLen uncompressed bytes starting
// at addr (at most maxIn compressed bytes), returning the bytes and the
// compressed length consumed.
func decompressBody(sp space.Space, addr uint64, maxIn uint64, blockLen uint64, dst []byte) ([]byte, uint64) {
	var in uint64
	// Buffered forward reader over the space, clamped to the stream end so
	// it never touches unmapped pages past the compressed data.
	var buf [4096]byte
	bufStart, bufEnd := uint64(0), uint64(0)
	readByte := func() byte {
		if in >= bufEnd || in < bufStart {
			if in >= maxIn {
				panic("snappy: truncated stream")
			}
			bufStart = in
			n := maxIn - in
			if n > uint64(len(buf)) {
				n = uint64(len(buf))
			}
			sp.Load(addr+in, buf[:n])
			bufEnd = in + n
		}
		b := buf[in-bufStart]
		in++
		return b
	}
	for uint64(len(dst)) < blockLen {
		tag := readByte()
		if tag&0x80 == 0 {
			n := int(tag) + 1
			for k := 0; k < n; k++ {
				dst = append(dst, readByte())
			}
		} else {
			length := int(tag&0x7f) + minCopyLen
			lo := readByte()
			hi := readByte()
			offset := int(lo) | int(hi)<<8
			start := len(dst) - offset
			if start < 0 {
				panic(fmt.Sprintf("snappy: copy before block start (offset %d at %d)", offset, len(dst)))
			}
			for k := 0; k < length; k++ {
				dst = append(dst, dst[start+k])
			}
		}
	}
	if uint64(len(dst)) != blockLen {
		panic("snappy: block overrun")
	}
	return dst, in
}
