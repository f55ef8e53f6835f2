package lhe

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"safetypin/internal/aead"
	"safetypin/internal/prg"
	"safetypin/internal/shamir"
)

// selectLabel domain-separates the cluster-selection hash.
const selectLabel = "safetypin/lhe/select/v1"

// Params fixes an LHE instantiation.
type Params struct {
	N int // total HSMs in the data center
	n int // cluster size
	t int // recovery threshold, typically n/2
}

// NewParams validates and returns an LHE parameter set.
func NewParams(total, cluster, threshold int) (Params, error) {
	switch {
	case total < 1:
		return Params{}, fmt.Errorf("lhe: need at least one HSM, got %d", total)
	case cluster < 1 || cluster > total:
		return Params{}, fmt.Errorf("lhe: cluster size %d out of range [1,%d]", cluster, total)
	case threshold < 1 || threshold > cluster:
		return Params{}, fmt.Errorf("lhe: threshold %d out of range [1,%d]", threshold, cluster)
	}
	return Params{N: total, n: cluster, t: threshold}, nil
}

// PaperParams returns the paper's configuration for a data center of the
// given size: n = 40, t = n/2 (scaled down proportionally if total < 40).
func PaperParams(total int) (Params, error) {
	n := 40
	if n > total {
		n = total
	}
	t := n / 2
	if t < 1 {
		t = 1
	}
	return NewParams(total, n, t)
}

// Total returns N, the number of HSMs the ciphertexts are spread over.
func (p Params) Total() int { return p.N }

// ClusterSize returns n.
func (p Params) ClusterSize() int { return p.n }

// Threshold returns t.
func (p Params) Threshold() int { return p.t }

// Encryptor encrypts a share to the public key of the HSM at a given index.
// Implementations must be key-private: the ciphertext may not reveal the
// recipient index. ad is a domain-separation string authenticated alongside
// the share; it names the recipient, so nothing derived from it may appear
// in the clear. series names the share's slot — (user, salt, position) and
// never the recipient — and is all an implementation may derive cleartext
// fields from.
type Encryptor interface {
	EncryptTo(index int, series, msg, ad []byte, rng io.Reader) ([]byte, error)
}

// ShareDecrypter decrypts a share ciphertext produced by an Encryptor for
// this HSM. Implemented by the HSM side (plain ElGamal or puncturable BFE).
type ShareDecrypter interface {
	Decrypt(ct, ad []byte) ([]byte, error)
}

// SharePuncturer is the HSM side of a puncturable Encryptor. It opens ct as
// Decrypt would, shows the plaintext to check, and — only if check
// accepts it — punctures the key so that ct never opens again, all as one
// operation on the key: a refused or failed call leaves the key untouched.
type SharePuncturer interface {
	DecryptAndPunctureIf(ct, ad []byte, check func(pt []byte) error) ([]byte, error)
}

// Ciphertext is a location-hiding recovery ciphertext: the public salt, the
// n key-share ciphertexts (in cluster order), and the sealed message.
// It corresponds to the tuple (salt, C_1..C_n, M) of Figure 15.
type Ciphertext struct {
	Salt   []byte
	Shares [][]byte
	Sealed []byte
}

// SaltSize is the length of the random public salt.
const SaltSize = 32

// Select deterministically maps (salt, pin) to the n distinct cluster
// indices in [N]. Both Backup and Recover call this; it is the only place
// the PIN enters the cryptosystem.
//
//spin:secret pin
func (p Params) Select(salt []byte, pin string) ([]int, error) {
	seed := sha256.New()
	seed.Write(salt)
	seed.Write([]byte{0})
	seed.Write([]byte(pin))
	return prg.Indices(selectLabel, seed.Sum(nil), p.n, p.N)
}

// shareSeries names share slot sharePos of the (user, salt) backup series:
// label, username, salt, share position — all public, none moved by the PIN.
// It is what an Encryptor may show in the clear.
func shareSeries(user string, salt []byte, sharePos int) []byte {
	var buf bytes.Buffer
	buf.WriteString("safetypin/lhe/share/v2|")
	binary.Write(&buf, binary.BigEndian, uint32(len(user)))
	buf.WriteString(user)
	buf.Write(salt)
	binary.Write(&buf, binary.BigEndian, uint32(sharePos))
	return buf.Bytes()
}

// shareAD builds the per-share domain-separation string of Appendix A.4:
// the series name and the recipient index, which the PIN selects. An HSM can
// rebuild it from the recovery request plus its own identity, and a
// ciphertext bound to one context fails everywhere else.
func shareAD(user string, salt []byte, sharePos, hsmIndex int) []byte {
	return binary.BigEndian.AppendUint32(shareSeries(user, salt, sharePos), uint32(hsmIndex))
}

// sealedAD binds the sealed message to the user and salt.
func sealedAD(user string, salt []byte) []byte {
	return append([]byte("safetypin/lhe/msg/v1|"+user+"|"), salt...)
}

// sharePlaintext prepends the username to a Shamir share, the paper's
// defence against user A replaying user B's share ciphertexts (§4.1).
func sharePlaintext(user string, s shamir.Share) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(len(user)))
	buf.WriteString(user)
	buf.Write(s.Bytes())
	return buf.Bytes()
}

// parseSharePlaintext inverts sharePlaintext and verifies the embedded
// username.
func parseSharePlaintext(b []byte, wantUser string) (shamir.Share, error) {
	if len(b) < 4 {
		return shamir.Share{}, errors.New("lhe: share plaintext too short")
	}
	ulen := int(binary.BigEndian.Uint32(b))
	if len(b) != 4+ulen+shamir.ShareSize {
		return shamir.Share{}, errors.New("lhe: malformed share plaintext")
	}
	user := string(b[4 : 4+ulen])
	if user != wantUser {
		return shamir.Share{}, fmt.Errorf("lhe: share bound to user %q, not %q", user, wantUser)
	}
	return shamir.ShareFromBytes(b[4+ulen:])
}

// Encrypt produces a recovery ciphertext for msg under (user, pin), spread
// over the N public keys held by enc. A fresh salt is drawn from rng.
//
//spin:secret pin
func (p Params) Encrypt(enc Encryptor, user, pin string, msg []byte, rng io.Reader) (*Ciphertext, error) {
	salt := make([]byte, SaltSize)
	if _, err := io.ReadFull(rng, salt); err != nil {
		return nil, fmt.Errorf("lhe: sampling salt: %w", err)
	}
	return p.EncryptWithSalt(enc, user, pin, salt, msg, rng)
}

// EncryptWithSalt is Encrypt with a caller-chosen salt. Clients reuse the
// salt across a series of backups (§8, "Multiple recovery ciphertexts") so
// that one puncture revokes all of their earlier ciphertexts at once.
//
//spin:secret pin
func (p Params) EncryptWithSalt(enc Encryptor, user, pin string, salt []byte, msg []byte, rng io.Reader) (*Ciphertext, error) {
	if len(salt) != SaltSize {
		return nil, fmt.Errorf("lhe: salt must be %d bytes, got %d", SaltSize, len(salt))
	}
	key := make([]byte, 16) // AES-128 transport key, as in the paper
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("lhe: sampling transport key: %w", err)
	}
	shares, err := shamir.SplitBytes(key, p.t, p.n, rng)
	if err != nil {
		return nil, err
	}
	cluster, err := p.Select(salt, pin)
	if err != nil {
		return nil, err
	}
	shareCts := make([][]byte, p.n)
	for j, hsmIdx := range cluster {
		pt := sharePlaintext(user, shares[j])
		ct, err := enc.EncryptTo(hsmIdx, shareSeries(user, salt, j), pt, shareAD(user, salt, j, hsmIdx), rng)
		if err != nil {
			return nil, fmt.Errorf("lhe: encrypting share %d to HSM %d: %w", j, hsmIdx, err)
		}
		shareCts[j] = ct
	}
	sealed, err := aead.Seal(key, msg, sealedAD(user, salt))
	if err != nil {
		return nil, err
	}
	return &Ciphertext{Salt: salt, Shares: shareCts, Sealed: sealed}, nil
}

// DecryptedShare is the result of one HSM's Decrypt step: the share position
// within the cluster plus the recovered Shamir share.
type DecryptedShare struct {
	Pos   int
	Share shamir.Share
}

// DecryptShare is the HSM-side decryption of Figure 15: given this HSM's
// ShareDecrypter, the recovery context (user, salt), the share position j,
// and the HSM's own index, recover the Shamir share and verify its username
// binding.
func DecryptShare(dec ShareDecrypter, user string, salt []byte, sharePos, hsmIndex int, shareCt []byte) (DecryptedShare, error) {
	pt, err := dec.Decrypt(shareCt, shareAD(user, salt, sharePos, hsmIndex))
	if err != nil {
		return DecryptedShare{}, fmt.Errorf("lhe: share decryption failed: %w", err)
	}
	s, err := parseSharePlaintext(pt, user)
	if err != nil {
		return DecryptedShare{}, err
	}
	return DecryptedShare{Pos: sharePos, Share: s}, nil
}

// DecryptAndPunctureShare is DecryptShare on a puncturable key, as an HSM
// serves a recovery: the share ciphertext is punctured in the same key
// operation that opens it, and only if the username bound into the share is
// the one asking — another user's request burns nothing.
func DecryptAndPunctureShare(dec SharePuncturer, user string, salt []byte, sharePos, hsmIndex int, shareCt []byte) (DecryptedShare, error) {
	ds := DecryptedShare{Pos: sharePos}
	_, err := dec.DecryptAndPunctureIf(shareCt, shareAD(user, salt, sharePos, hsmIndex), func(pt []byte) (err error) {
		ds.Share, err = parseSharePlaintext(pt, user)
		return err
	})
	if err != nil {
		return DecryptedShare{}, fmt.Errorf("lhe: share decryption failed: %w", err)
	}
	return ds, nil
}

// Reconstruct recovers the backed-up message from at least t decrypted
// shares. It corresponds to Figure 15's Reconstruct plus the final AEAD
// open.
func (p Params) Reconstruct(user string, ct *Ciphertext, shares []DecryptedShare) ([]byte, error) {
	if len(shares) < p.t {
		return nil, fmt.Errorf("lhe: have %d shares, need %d", len(shares), p.t)
	}
	ss := make([]shamir.Share, 0, len(shares))
	for _, d := range shares {
		ss = append(ss, d.Share)
	}
	key, err := shamir.ReconstructBytes(ss, p.t)
	if err != nil {
		return nil, err
	}
	msg, err := aead.Open(key, ct.Sealed, sealedAD(user, ct.Salt))
	if err != nil {
		return nil, fmt.Errorf("lhe: opening sealed message (wrong PIN or corrupt shares?): %w", err)
	}
	return msg, nil
}
