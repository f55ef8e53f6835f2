package lhe

import (
	"errors"
	"fmt"

	"safetypin/internal/codec"
)

// Serialization of Ciphertext, on internal/codec:
//
//	salt(blob) ‖ nShares(u32) ‖ nShares × share(blob) ‖ sealed(blob)

// maxShares bounds the share count a parsed ciphertext may claim.
const maxShares = 1 << 16

// Bytes serializes the ciphertext.
func (c *Ciphertext) Bytes() []byte {
	out := codec.AppendBlob(nil, c.Salt)
	out = codec.AppendU32(out, uint32(len(c.Shares)))
	for _, s := range c.Shares {
		out = codec.AppendBlob(out, s)
	}
	return codec.AppendBlob(out, c.Sealed)
}

// CiphertextFromBytes parses a serialized ciphertext.
func CiphertextFromBytes(b []byte) (*Ciphertext, error) {
	r := codec.NewReader(b)
	ct := &Ciphertext{Salt: r.Blob()}
	n := r.Count(4) // each share is at least its length prefix
	if n > maxShares {
		return nil, fmt.Errorf("lhe: implausible share count %d", n)
	}
	ct.Shares = make([][]byte, n)
	for i := range ct.Shares {
		ct.Shares[i] = r.Blob()
	}
	ct.Sealed = r.Blob()
	if !r.Done() {
		return nil, errors.New("lhe: malformed ciphertext")
	}
	return ct, nil
}
