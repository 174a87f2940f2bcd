package crypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"ivleague/internal/config"
)

func engine() *Engine {
	return NewEngine(config.Default().Crypto, 42)
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := engine()
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i * 7)
	}
	enc := make([]byte, 64)
	dec := make([]byte, 64)
	e.EncryptBlock(enc, src, 0x1000, 5)
	if bytes.Equal(enc, src) {
		t.Fatal("ciphertext equals plaintext")
	}
	e.DecryptBlock(dec, enc, 0x1000, 5)
	if !bytes.Equal(dec, src) {
		t.Fatal("round trip failed")
	}
}

func TestCounterUniquenessChangesCiphertext(t *testing.T) {
	e := engine()
	src := make([]byte, 64)
	a, b := make([]byte, 64), make([]byte, 64)
	e.EncryptBlock(a, src, 0x1000, 1)
	e.EncryptBlock(b, src, 0x1000, 2)
	if bytes.Equal(a, b) {
		t.Fatal("different counters produced identical ciphertext")
	}
}

func TestAddressBindingChangesCiphertext(t *testing.T) {
	e := engine()
	src := make([]byte, 64)
	a, b := make([]byte, 64), make([]byte, 64)
	e.EncryptBlock(a, src, 0x1000, 1)
	e.EncryptBlock(b, src, 0x2000, 1)
	if bytes.Equal(a, b) {
		t.Fatal("different addresses produced identical ciphertext (splicing possible)")
	}
}

func TestMACDetectsTampering(t *testing.T) {
	e := engine()
	data := make([]byte, 64)
	data[3] = 9
	mac := e.MAC(data, 0x40, 7)
	data[3] = 10
	if e.MAC(data, 0x40, 7) == mac {
		t.Fatal("MAC did not change with data")
	}
	data[3] = 9
	if e.MAC(data, 0x80, 7) == mac {
		t.Fatal("MAC did not bind address")
	}
	if e.MAC(data, 0x40, 8) == mac {
		t.Fatal("MAC did not bind counter (replay possible)")
	}
	if e.MAC(data, 0x40, 7) != mac {
		t.Fatal("MAC not deterministic")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	e1 := NewEngine(config.Default().Crypto, 1)
	e2 := NewEngine(config.Default().Crypto, 2)
	src := make([]byte, 64)
	a, b := make([]byte, 64), make([]byte, 64)
	e1.EncryptBlock(a, src, 0, 0)
	e2.EncryptBlock(b, src, 0, 0)
	if bytes.Equal(a, b) {
		t.Fatal("two keys encrypted identically")
	}
}

func TestLatencyAccessors(t *testing.T) {
	e := engine()
	cfg := config.Default().Crypto
	if e.AESLatency() != cfg.AESLatency || e.MACLatency() != cfg.MACLatency || e.HashLatency() != cfg.HashLatency {
		t.Fatal("latency accessors disagree with config")
	}
}

func TestEncryptPanicsOnShortBuffer(t *testing.T) {
	e := engine()
	defer func() {
		if recover() == nil {
			t.Fatal("short buffer did not panic")
		}
	}()
	e.EncryptBlock(make([]byte, 10), make([]byte, 64), 0, 0)
}

func TestNodeHashMixes(t *testing.T) {
	if NodeHash(1, 2) == NodeHash(2, 1) {
		t.Fatal("NodeHash insensitive to order")
	}
	if NodeHash(0) == NodeHash(0, 0) {
		t.Fatal("NodeHash insensitive to length")
	}
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return NodeHash(a) != NodeHash(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	e := engine()
	f := func(data [64]byte, addr, c uint64) bool {
		enc := make([]byte, 64)
		dec := make([]byte, 64)
		e.EncryptBlock(enc, data[:], addr, c)
		e.DecryptBlock(dec, enc, addr, c)
		return bytes.Equal(dec, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
