package experiments

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"

	"safetypin/internal/bls"
)

// hostbench.go holds the tiny primitive wrappers MeasureHostRates times.

var hmacKey = make([]byte, 32)

func hmacOnce(msg []byte) []byte {
	mac := hmac.New(sha256.New, hmacKey)
	mac.Write(msg)
	return mac.Sum(nil)
}

func aesOnce(key, msg32 []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	var out [32]byte
	block.Encrypt(out[:16], msg32[:16])
	block.Encrypt(out[16:], msg32[16:])
	return out[:]
}

// measurePairingRate times our from-scratch BLS12-381 pairing (a few ms
// per operation on the limb-based engine, so timeRate's 50 ms budget still
// only fits a couple of dozen iterations).
func measurePairingRate() float64 {
	p, q := bls.G1Generator(), bls.G2Generator()
	return timeRate(func() {
		if _, err := bls.Pair(p, q); err != nil {
			panic(err)
		}
	})
}

// measureG1MulRate times the G1 multiplication an HSM runs to sign: the
// constant-time GLV walk (bls.G1.MulSecret) under SignMessage, on a fixed
// key and an already hashed message.
func measureG1MulRate() float64 {
	sk, _, err := bls.GenerateKey(rand.New(rand.NewSource(0xb5)))
	if err != nil {
		panic(err)
	}
	m := bls.HashMessage([]byte("table7"))
	return timeRate(func() { sk.SignMessage(m) })
}

// measureRosterAggRate times bls.AggregatePublicKeys over a 256-key roster
// and reports per-key throughput.
func measureRosterAggRate() float64 {
	const n = 256
	_, pks, err := bls.GenerateKeyBatch(rand.New(rand.NewSource(3)), n)
	if err != nil {
		panic(err)
	}
	aggs := timeRate(func() {
		if _, err := bls.AggregatePublicKeys(pks); err != nil {
			panic(err)
		}
	})
	return aggs * n
}
