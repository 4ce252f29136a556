// Package eccmeta models how TokenTM stores 16 metabits per 64-byte memory
// block inside standard ECC DRAM, following the S3.mp recoding technique the
// paper cites (§4.3).
//
// Standard DRAM protects each 64-bit word with a (72,64) SECDED code: 8
// check bits per word, 32 check bits for a 4-word group. Regrouping four
// words into one 256-bit codeword needs only 10 check bits for SECDED
// (2^9 > 256+10 requires 10 bits including the overall parity), freeing
// 288 - 256 - 10 = 22 bits. Those 22 bits form an independent codeword
// carrying 16 metabits protected by their own 6-bit SECDED code
// (2^5 > 16+6).
//
// This package implements real Hamming SECDED encoders/decoders at both
// granularities and a MetaDRAM container, so the claimed storage trick is
// demonstrated bit-for-bit, including single-error correction and
// double-error detection on the metabits. No other package imports it yet.
package eccmeta

import (
	"errors"
	"fmt"
	"math/bits"
)

// Layout constants for the recoded codeword (§4.3).
const (
	// GroupDataBits is the data payload of a regrouped codeword: four
	// 64-bit words.
	GroupDataBits = 256
	// GroupCheckBits protects the 256 data bits with SECDED.
	GroupCheckBits = 10
	// MetaBits is the per-block metastate payload.
	MetaBits = 16
	// MetaCheckBits protects the metabits with SECDED.
	MetaCheckBits = 6
	// FreedBits is the independent codeword freed by regrouping:
	// 4*72 - 256 - 10 = 22 = 16 + 6.
	FreedBits = 4*72 - GroupDataBits - GroupCheckBits
)

// ErrDoubleError reports an uncorrectable (double-bit) error.
var ErrDoubleError = errors.New("eccmeta: uncorrectable double-bit error")

// secded implements an extended Hamming code over a dataBits-bit payload
// held in a []uint64 (little-endian bit order). checkBits includes the
// overall parity bit.
type secded struct {
	dataBits  int
	checkBits int // including overall parity
}

// codeBits is the total codeword length.
func (c secded) codeBits() int { return c.dataBits + c.checkBits }

// Positions: we place the codeword in "Hamming order": positions 1..n where
// positions that are powers of two hold check bits, everything else holds
// data bits, plus an overall parity bit at position 0.

// ham computes the Hamming check bits for data: the XOR of the codeword
// positions of all set data bits, where positions that are powers of two are
// reserved for the check bits themselves.
func (c secded) ham(data []uint64) uint32 {
	var checks uint32
	pos := 1
	di := 0
	for di < c.dataBits {
		if bits.OnesCount(uint(pos)) == 1 { // power of two: check position
			pos++
			continue
		}
		if data[di/64]>>(di%64)&1 == 1 {
			checks ^= uint32(pos)
		}
		pos++
		di++
	}
	return checks & (1<<(c.checkBits-1) - 1)
}

// dataParity returns the parity of the data bits.
func (c secded) dataParity(data []uint64) uint32 {
	var p uint32
	full := c.dataBits / 64
	for i := 0; i < full; i++ {
		p ^= uint32(bits.OnesCount64(data[i]))
	}
	if rem := c.dataBits % 64; rem != 0 {
		p ^= uint32(bits.OnesCount64(data[full] & (1<<rem - 1)))
	}
	return p & 1
}

// Encode computes the check bits for data (length ceil(dataBits/64) words).
// The returned check word packs: bit i = Hamming check bit for mask 2^i, and
// the top bit (bit checkBits-1) is the overall parity over data bits and
// Hamming check bits, making the full codeword's parity even.
func (c secded) Encode(data []uint64) uint32 {
	checks := c.ham(data)
	parity := (uint32(bits.OnesCount32(checks)) ^ c.dataParity(data)) & 1
	return checks | parity<<(c.checkBits-1)
}

// Decode checks data against stored checks, correcting a single-bit error in
// the data in place. It reports whether a correction happened and returns
// ErrDoubleError for uncorrectable errors. Single-bit errors confined to the
// check bits are ignored (the data is intact).
func (c secded) Decode(data []uint64, stored uint32) (corrected bool, err error) {
	hamMask := uint32(1<<(c.checkBits-1)) - 1
	storedHam := stored & hamMask
	syndrome := c.ham(data) ^ storedHam
	// Received-word parity: data bits, stored Hamming bits and the stored
	// parity bit together must have even parity.
	recvParity := c.dataParity(data) ^
		uint32(bits.OnesCount32(storedHam))&1 ^
		stored>>(c.checkBits-1)&1
	parityOdd := recvParity == 1
	switch {
	case syndrome == 0 && !parityOdd:
		return false, nil
	case syndrome == 0 && parityOdd:
		// Error in the overall parity bit itself; data intact.
		return false, nil
	case parityOdd:
		// Single-bit error at codeword position `syndrome`.
		if bits.OnesCount32(syndrome) == 1 {
			// The flipped bit is a Hamming check bit; data intact.
			return false, nil
		}
		di, ok := c.dataIndexOfPosition(int(syndrome))
		if !ok {
			return false, fmt.Errorf("eccmeta: syndrome %d outside codeword", syndrome)
		}
		data[di/64] ^= 1 << (di % 64)
		return true, nil
	default:
		// Nonzero syndrome with even parity: double error.
		return false, ErrDoubleError
	}
}

// dataIndexOfPosition maps a Hamming codeword position to its data bit index.
func (c secded) dataIndexOfPosition(pos int) (int, bool) {
	if pos <= 0 || pos > c.codeBits() {
		return 0, false
	}
	di := 0
	for p := 1; p <= pos; p++ {
		if bits.OnesCount(uint(p)) == 1 {
			continue
		}
		if p == pos {
			return di, true
		}
		di++
	}
	return 0, false
}

var (
	groupCode = secded{dataBits: GroupDataBits, checkBits: GroupCheckBits}
	metaCode  = secded{dataBits: MetaBits, checkBits: MetaCheckBits}
)

// Codeword is one recoded 288-bit DRAM beat group: 256 data bits, 16
// metabits, and the two SECDED check fields.
type Codeword struct {
	Data      [4]uint64
	DataCheck uint32
	Meta      uint16
	MetaCheck uint32
}

// EncodeGroup builds a codeword from four data words and 16 metabits.
func EncodeGroup(data [4]uint64, meta uint16) Codeword {
	cw := Codeword{Data: data, Meta: meta}
	cw.DataCheck = groupCode.Encode(data[:])
	m := []uint64{uint64(meta)}
	cw.MetaCheck = metaCode.Encode(m)
	return cw
}

// DecodeGroup verifies and (if needed) corrects the codeword, returning the
// data words and metabits.
func DecodeGroup(cw Codeword) (data [4]uint64, meta uint16, err error) {
	data = cw.Data
	if _, err = groupCode.Decode(data[:], cw.DataCheck); err != nil {
		return data, 0, fmt.Errorf("data field: %w", err)
	}
	m := []uint64{uint64(cw.Meta)}
	if _, err = metaCode.Decode(m, cw.MetaCheck); err != nil {
		return data, 0, fmt.Errorf("meta field: %w", err)
	}
	return data, uint16(m[0]), nil
}

// FlipDataBit injects a data-bit error (for tests and fault-injection).
func (cw *Codeword) FlipDataBit(i int) { cw.Data[i/64] ^= 1 << (i % 64) }

// FlipMetaBit injects a metabit error.
func (cw *Codeword) FlipMetaBit(i int) { cw.Meta ^= 1 << i }
