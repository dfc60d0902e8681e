package byzantine

import "testing"

// FuzzProvenance drives the tag codec and the receiving edge with
// byte soup. The invariants the CI smoke run gates on: the verifier
// never panics on arbitrary input; a genuine tag verifies exactly
// once; and no mutation of a genuine tag's bit stream — nor any
// arbitrary stream — verifies unless it decodes to a tag whose keyed
// sum is correct, which a keyless forger cannot mint except by the
// 2⁻⁶⁴ accident this harness would surface as a reproducible seed.
func FuzzProvenance(f *testing.F) {
	f.Add([]byte{}, []byte{}, int64(1))
	f.Add([]byte{1, 0, 1}, []byte{1, 1, 0, 1, 0, 1, 0, 0}, int64(1987))
	f.Add(make([]byte, TagOverhead), []byte{0}, int64(-7))
	f.Add(make([]byte, TagOverhead+5), make([]byte, 64), int64(42))
	f.Fuzz(func(t *testing.T, soup, payload []byte, seed int64) {
		for i := range payload {
			payload[i] &= 1
		}
		key := DeriveKey(seed)
		v := NewVerifier(key)

		// Byte soup never panics, and never verifies unless it happens
		// to decode to a correctly keyed tag — check the claim rather
		// than assume the odds.
		if got := v.VerifyBits(soup, payload); got == VerdictOK {
			tag, err := DecodeTag(soup)
			if err != nil || Checksum(key, tag.Epoch, tag.Seq, payload) != tag.Sum {
				t.Fatalf("unkeyed stream verified: %v", soup)
			}
		}

		// A genuine stamp verifies once, duplicates after, and every
		// single-bit mutation of it is booked forged (the mutation may
		// collide with the soup's acceptance above only through a
		// correctly keyed sum, same argument).
		s := NewStamper(key)
		tag := s.Stamp(uint64(seed), payload)
		bits := EncodeTag(tag)
		if got := v.VerifyBits(bits, payload); got != VerdictOK {
			t.Fatalf("genuine tag booked %v", got)
		}
		if got := v.VerifyBits(bits, payload); got != VerdictDuplicated {
			t.Fatalf("replayed tag booked %v", got)
		}
		if len(soup) > 0 {
			mut := append([]byte(nil), bits...)
			pos := int(soup[0]) % len(mut)
			mut[pos] ^= 1
			if got := v.VerifyBits(mut, payload); got != VerdictForged {
				t.Fatalf("tag with bit %d flipped booked %v, want forged", pos, got)
			}
		}
	})
}
