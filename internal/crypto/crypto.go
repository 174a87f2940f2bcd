// Package crypto implements the secure-processor cryptographic engine:
// counter-mode encryption of 64-byte memory blocks, per-block message
// authentication codes, and the tree-node hash used by integrity trees.
//
// Two layers coexist:
//
//   - a functional layer (real AES-CTR via crypto/aes, HMAC-style MACs via
//     crypto/sha256) used by the functional memory, the examples and the
//     tamper-detection tests, and
//   - a timing layer: the engine exposes the configured latencies, which the
//     performance simulator charges without running the ciphers, exactly as
//     a cycle simulator would.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"ivleague/internal/config"
)

// Engine is the on-chip crypto engine. It is safe for concurrent use for
// the functional operations; the latency accessors are trivially so.
type Engine struct {
	cfg    config.CryptoConfig
	block  cipher.Block
	macKey [32]byte
}

// NewEngine creates an engine with the given configuration and a 16-byte
// AES key plus MAC key derived from seed.
func NewEngine(cfg config.CryptoConfig, seed uint64) *Engine {
	var key [16]byte
	binary.LittleEndian.PutUint64(key[0:], seed^0x5157495245c0ffee)
	binary.LittleEndian.PutUint64(key[8:], seed*0x9e3779b97f4a7c15+1)
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("crypto: aes.NewCipher: %v", err))
	}
	e := &Engine{cfg: cfg, block: blk}
	mk := sha256.Sum256(key[:])
	e.macKey = mk
	return e
}

// AESLatency returns the cycles for one-time-pad generation.
func (e *Engine) AESLatency() int { return e.cfg.AESLatency }

// MACLatency returns the cycles for one MAC check or generation.
func (e *Engine) MACLatency() int { return e.cfg.MACLatency }

// HashLatency returns the cycles for hashing one tree node.
func (e *Engine) HashLatency() int { return e.cfg.HashLatency }

// pad computes the counter-mode one-time pad for the 64-byte block at
// physical address addr with encryption counter ctr. The seed is derived
// from the address and counter, as in the paper's description: S = (addr,
// counter), pad = Enc_K(S).
func (e *Engine) pad(addr uint64, ctr uint64, out *[config.BlockBytes]byte) {
	var seed [16]byte
	for chunk := 0; chunk < config.BlockBytes/16; chunk++ {
		binary.LittleEndian.PutUint64(seed[0:], addr+uint64(chunk))
		binary.LittleEndian.PutUint64(seed[8:], ctr)
		e.block.Encrypt(out[chunk*16:(chunk+1)*16], seed[:])
	}
}

// EncryptBlock encrypts the 64-byte plaintext in place semantics: dst and
// src may alias. The counter must be the block's current write counter.
func (e *Engine) EncryptBlock(dst, src []byte, addr uint64, ctr uint64) {
	if len(dst) < config.BlockBytes || len(src) < config.BlockBytes {
		panic("crypto: EncryptBlock needs 64-byte buffers")
	}
	var p [config.BlockBytes]byte
	e.pad(addr, ctr, &p)
	for i := 0; i < config.BlockBytes; i++ {
		dst[i] = src[i] ^ p[i]
	}
}

// DecryptBlock is the inverse of EncryptBlock (CTR mode is symmetric).
func (e *Engine) DecryptBlock(dst, src []byte, addr uint64, ctr uint64) {
	e.EncryptBlock(dst, src, addr, ctr)
}

// MAC computes the 64-bit authentication code over a 64-byte block, its
// address and its counter, keyed by the engine's MAC key.
func (e *Engine) MAC(data []byte, addr uint64, ctr uint64) uint64 {
	h := sha256.New()
	h.Write(e.macKey[:])
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], addr)
	binary.LittleEndian.PutUint64(hdr[8:], ctr)
	h.Write(hdr[:])
	h.Write(data)
	sum := h.Sum(nil)
	return binary.LittleEndian.Uint64(sum[:8])
}

// NodeHash is the fast 64-bit hash used for integrity-tree nodes in the
// functional tree model. It is a strong mixing hash (not cryptographic);
// the simulator documents it as standing in for a keyed hash such as
// SHA-based constructions, whose timing is modelled by HashLatency.
func NodeHash(parts ...uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, p := range parts {
		h ^= p
		h *= 0x100000001b3
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
	}
	h ^= h >> 32
	return h
}
