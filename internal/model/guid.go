package model

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"unicode/utf8"
)

// iriStackLen sizes the stack buffers of the string-returning IRI helpers
// and of AppendTriples: an IRI that fits is built with one allocation, the
// final string.
const iriStackLen = 160

// NodeIRI mints the globally unique IRI (GUID) for a provenance node.
//
// PROV-IO relies on GUIDs so that per-process sub-graphs merge without
// duplication (paper §5): two processes that touch the same data object must
// mint the same node IRI. We therefore derive data-object and agent IRIs
// deterministically from their identity (class + path/name), while activity
// IRIs — which denote individual API invocations — additionally embed the
// process and a per-process sequence number, mirroring the paper's
// "H5Dcreate2-b1" style identifiers.
func NodeIRI(class Class, identity string) string {
	var buf [iriStackLen]byte
	return string(appendNodeIRI(buf[:0], class, identity))
}

// appendNodeIRI appends NodeIRI(class, identity) to dst. The class's
// namespace prefix is precomputed at class construction.
func appendNodeIRI(dst []byte, class Class, identity string) []byte {
	dst = appendNodePrefix(dst, class)
	from := len(dst)
	return escapeIdentity(append(dst, identity...), from, true)
}

func appendNodePrefix(dst []byte, class Class) []byte {
	if class.nodePrefix == "" {
		// Zero or hand-built Class: fall back to computing the prefix.
		dst = append(dst, ProvIONS...)
		dst = append(dst, strings.ToLower(class.Name)...)
		return append(dst, '/')
	}
	return append(dst, class.nodePrefix...)
}

// ActivityIRI mints the IRI of one I/O API invocation: the API name (made
// IRI-safe like a node identity), the process ID, and a per-process sequence
// number.
func ActivityIRI(apiName string, pid, seq int) string {
	var buf [iriStackLen]byte
	return string(appendActivityIRI(buf[:0], apiName, pid, seq))
}

func appendActivityIRI(dst []byte, apiName string, pid, seq int) []byte {
	dst = append(dst, ProvIONS...)
	dst = append(dst, "api/"...)
	from := len(dst)
	dst = escapeIdentity(append(dst, apiName...), from, false)
	dst = append(dst, "-p"...)
	dst = strconv.AppendInt(dst, int64(pid), 10)
	dst = append(dst, "-b"...)
	return strconv.AppendInt(dst, int64(seq), 10)
}

// identitySafe reports whether c may stand in an IRI as it is: the
// characters of common paths and names.
func identitySafe(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	return c == '/' || c == '.' || c == '-' || c == '_'
}

// escapeIdentity rewrites b[from:], an arbitrary identity, in place so it is
// safe inside an IRI while common path characters stay readable: every other
// character (a whole UTF-8 sequence, or one stray byte) becomes '_', and an
// identity that needed that is suffixed with a short hash of its original
// bytes to stay unique. trimSlash drops one leading '/', for identities that
// follow a prefix already ending in one. The result is never longer than the
// identity plus the 9-byte suffix, and a safe identity is left byte-identical.
func escapeIdentity(b []byte, from int, trimSlash bool) []byte {
	id := b[from:]
	safe := true
	for _, c := range id {
		if !identitySafe(c) {
			safe = false
			break
		}
	}
	i := 0
	if trimSlash && len(id) > 0 && id[0] == '/' {
		i = 1
	}
	if safe {
		return append(b[:from], id[i:]...)
	}
	sum := sha256.Sum256(id)
	w := from
	for i < len(id) {
		c, n := id[i], 1
		if !identitySafe(c) {
			if c >= utf8.RuneSelf {
				_, n = utf8.DecodeRune(id[i:])
			}
			c = '_'
		}
		b[w] = c
		w++
		i += n
	}
	b = append(b[:w], '-')
	return hex.AppendEncode(b, sum[:4])
}
