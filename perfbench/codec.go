package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The benchmark encodes its inputs and reduces its references with its own
// codecs for the three payload formats the aggregators read, never with the
// agg package: a broken agg codec or Combine must fail the output check, not
// agree with it.

var errMalformed = errors.New("perfbench: malformed payload")

type kv struct {
	key string
	val int64
}

// encodeKVs writes pairs in the KV payload format: a uvarint count, then
// per pair a uvarint key length, the key and a zig-zag varint value. The
// pairs must already be sorted by key with no key repeated (the canonical
// form).
func encodeKVs(kvs []kv) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(kvs)))
	for _, p := range kvs {
		buf = binary.AppendUvarint(buf, uint64(len(p.key)))
		buf = append(buf, p.key...)
		buf = binary.AppendVarint(buf, p.val)
	}
	return buf
}

// sumKVs decodes a KV payload and adds every value into sums.
func sumKVs(p []byte, sums map[string]int64) error {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return errMalformed
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < klen {
			return errMalformed
		}
		key := p[n : n+int(klen)]
		p = p[n+int(klen):]
		val, n := binary.Varint(p)
		if n <= 0 {
			return errMalformed
		}
		p = p[n:]
		sums[string(key)] += val
	}
	if len(p) != 0 {
		return errMalformed
	}
	return nil
}

// reduceKVs is the word-count reference reducer: a plain per-key sum over
// every payload, re-encoded in canonical order.
func reduceKVs(parts [][]byte) ([]byte, error) {
	sums := make(map[string]int64)
	for _, p := range parts {
		if err := sumKVs(p, sums); err != nil {
			return nil, err
		}
	}
	out := make([]kv, 0, len(sums))
	for k, v := range sums {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return encodeKVs(out), nil
}

// encodeItems writes opaque items in the Concat payload format: a uvarint
// count, then per item a uvarint length and the bytes.
func encodeItems(items [][]byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(len(it)))
		buf = append(buf, it...)
	}
	return buf
}

// decodeItems appends the items of a Concat payload to out. The items
// alias p.
func decodeItems(p []byte, out [][]byte) ([][]byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errMalformed
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		ilen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < ilen {
			return nil, errMalformed
		}
		out = append(out, p[n:n+int(ilen)])
		p = p[n+int(ilen):]
	}
	if len(p) != 0 {
		return nil, errMalformed
	}
	return out, nil
}

// reduceRows is the TeraSort reference reducer: every row of every
// payload, fully sorted.
func reduceRows(parts [][]byte) ([]byte, error) {
	var rows [][]byte
	for _, p := range parts {
		var err error
		if rows, err = decodeItems(p, rows); err != nil {
			return nil, err
		}
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i], rows[j]) < 0 })
	return encodeItems(rows), nil
}

type doc struct {
	id    uint64
	score float64
	text  string
}

// docBefore is the search ranking: score descending, then ID ascending.
func docBefore(a, b doc) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// encodeDocs writes documents in the search payload format: a uvarint
// count, then per document a uvarint ID, the little-endian float64 score,
// a uvarint text length and the text. The documents must already be in
// ranking order (the canonical form).
func encodeDocs(docs []doc) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(docs)))
	for _, d := range docs {
		buf = binary.AppendUvarint(buf, d.id)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.score))
		buf = binary.AppendUvarint(buf, uint64(len(d.text)))
		buf = append(buf, d.text...)
	}
	return buf
}

// decodeDocs appends the documents of a search payload to out.
func decodeDocs(p []byte, out []doc) ([]doc, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, errMalformed
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		id, n := binary.Uvarint(p)
		if n <= 0 || len(p)-n < 8 {
			return nil, errMalformed
		}
		p = p[n:]
		score := math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		tlen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < tlen {
			return nil, errMalformed
		}
		out = append(out, doc{id: id, score: score, text: string(p[n : n+int(tlen)])})
		p = p[n+int(tlen):]
	}
	if len(p) != 0 {
		return nil, errMalformed
	}
	return out, nil
}

// topDocs ranks docs and keeps the first k.
func topDocs(docs []doc, k int) []doc {
	sort.Slice(docs, func(i, j int) bool { return docBefore(docs[i], docs[j]) })
	if len(docs) > k {
		docs = docs[:k]
	}
	return docs
}

// reduceTopK is the search reference reducer: the top k documents of all
// payloads by (score desc, ID asc).
func reduceTopK(parts [][]byte, k int) ([]byte, error) {
	var docs []doc
	for _, p := range parts {
		var err error
		if docs, err = decodeDocs(p, docs); err != nil {
			return nil, err
		}
	}
	return encodeDocs(topDocs(docs, k)), nil
}

// checkResult compares a job's result parts with the canonical reference.
// A single part equal to the reference passes at once; anything else (more
// parts, or one part in another encoding) is reduced with the same
// reference reducer before comparing.
func checkResult(parts [][]byte, ref []byte, reduce func([][]byte) ([]byte, error)) error {
	if len(parts) == 1 && bytes.Equal(parts[0], ref) {
		return nil
	}
	got, err := reduce(parts)
	if err != nil {
		return fmt.Errorf("result undecodable: %w", err)
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("result differs from reference (%d parts, %d bytes reduced, want %d)",
			len(parts), len(got), len(ref))
	}
	return nil
}
