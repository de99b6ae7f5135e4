package catalog

// Snapshot streaming hooks for the cluster layer.
//
// ExportSnapshot serializes the current snapshot in the exact trailered
// on-disk format (payload JSON + checksum trailer), so a peer pulling the
// stream gets end-to-end corruption detection for free: the same
// verifyPayload that guards OpenWAL guards the network transfer.
// ImportSnapshot is the receiving side — verify, parse, validate, then
// commit the verified payload as one replace frame, which recompiles
// estimators via core.Compile and persists through the store's (possibly
// fault-injected) filesystem. MergeSnapshot and MergeEntries fold streams in
// as a union instead, computing it inside the commit's prepare step.
//
// ContentHash gives both sides a cheap content-addressed identity for
// anti-entropy: it hashes the canonical JSON payload only (no trailer, no
// generation), so two stores holding identical statistics report identical
// hashes regardless of how many local generations each has been through.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"

	"epfis/internal/stats"
)

// ExportSnapshot serializes the current snapshot in the trailered catalog
// format and reports the generation it captured. The bytes are safe to
// stream as-is; the embedded trailer lets the receiver verify integrity.
func (st *Store) ExportSnapshot() ([]byte, uint64, error) {
	snap := st.Snapshot()
	payload, err := catalogJSON(snap.entries)
	if err != nil {
		return nil, 0, err
	}
	return withTrailer(payload, ""), snap.gen, nil
}

// verifiedStream checks a trailered catalog stream and parses its payload.
// Unlike file loading, a stream without a checksum trailer is rejected:
// network transfers get no legacy grace.
func verifiedStream(data []byte) ([]byte, *stats.Catalog, error) {
	if !bytes.Contains(data, []byte(trailerPrefix)) {
		return nil, nil, fmt.Errorf("%w: stream has no checksum trailer", ErrCorrupt)
	}
	payload, _, err := verifyPayload(data)
	if err != nil {
		return nil, nil, err
	}
	c, err := stats.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	return payload, c, nil
}

// ImportSnapshot verifies a trailered catalog stream (as produced by
// ExportSnapshot), parses and validates the statistics, and swaps them in as
// a new generation — recompiling estimators through the usual core.Compile
// ingress path and persisting through the store's filesystem.
func (st *Store) ImportSnapshot(data []byte) (uint64, error) {
	payload, c, err := verifiedStream(data)
	if err != nil {
		return 0, fmt.Errorf("catalog: import snapshot: %w", err)
	}
	return st.replaceAll(entriesOf(c), payload)
}

// MergeSnapshot is the partition-tolerant sibling of ImportSnapshot: it
// folds a verified snapshot stream into the current entry set as a UNION
// instead of a replacement. Stream entries win for every key except those
// the skip callback claims (keys with locally-tracked mutation epochs,
// whose precise state converges through hinted handoff rather than bulk
// anti-entropy); local-only keys are never deleted by a merge — deletions
// propagate as explicit replicated mutations, not by absence from a peer's
// snapshot. With an empty local store and a nil skip it degenerates to a
// full adopt, which is the bootstrap/restart case. A merge that changes no
// key commits nothing and returns the current generation. skip runs under
// the store's writer lock, atomically with the union: it must not call back
// into the store.
func (st *Store) MergeSnapshot(data []byte, skip func(key string) bool) (uint64, error) {
	_, c, err := verifiedStream(data)
	if err != nil {
		return 0, fmt.Errorf("catalog: merge snapshot: %w", err)
	}
	return st.merge(entriesOf(c), skip)
}

// merge commits the union of incoming into the catalog. Skip and the union
// are evaluated inside prepare, against the applied base, so a mutation that
// commits while the merge is being set up is never overwritten by a stale
// copy; each changed key is logged as one put frame. Entries are encoded
// before the lock is taken — prepare only selects among the encodings — and
// an incoming entry byte-identical to the published one is no change.
func (st *Store) merge(incoming map[string]*stats.IndexStats, skip func(key string) bool) (uint64, error) {
	keys := sortedKeys(incoming)
	payloads := make(map[string][]byte, len(keys))
	same := map[string]*stats.IndexStats{}
	pub := st.Snapshot()
	for _, k := range keys {
		p, err := json.Marshal(incoming[k])
		if err != nil {
			return 0, fmt.Errorf("catalog: encode entry: %w", err)
		}
		payloads[k] = p
		if cur, ok := pub.entries[k]; ok {
			if q, err := json.Marshal(cur); err == nil && bytes.Equal(p, q) {
				same[k] = cur
			}
		}
	}
	gen, err := st.commit(func(base *Snapshot) (map[string]*stats.IndexStats, []walFrame) {
		var next map[string]*stats.IndexStats
		var frames []walFrame
		for _, k := range keys {
			if cur, ok := same[k]; ok && base.entries[k] == cur {
				continue
			}
			if skip != nil && skip(k) {
				continue
			}
			if next == nil {
				next = cloneEntries(base.entries)
			}
			next[k] = incoming[k]
			frames = append(frames, walFrame{walFramePut, payloads[k]})
		}
		return next, frames
	})
	if err != nil {
		return 0, err
	}
	if gen == 0 {
		return st.Generation(), nil
	}
	return gen, nil
}

// ContentHash reports the CRC32-C of the canonical JSON payload of the
// current snapshot (rendered "crc32c:xxxxxxxx") and the generation it was
// computed at. Identical statistics hash identically on every node.
func (st *Store) ContentHash() (string, uint64, error) {
	snap := st.Snapshot()
	payload, err := catalogJSON(snap.entries)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("crc32c:%08x", crc32.Checksum(payload, crcTable)), snap.gen, nil
}

// entryPayload renders the canonical single-entry catalog JSON for e. The
// rendering is deterministic, so two nodes holding the same entry produce
// byte-identical payloads — which is what makes per-entry CRCs comparable
// across the wire.
func entryPayload(e *stats.IndexStats) ([]byte, error) {
	return catalogJSON(map[string]*stats.IndexStats{e.Key(): e})
}

// ExportEntry serializes one entry as a trailered single-entry catalog
// stream — the same framing as ExportSnapshot, so the receiver gets the
// same end-to-end corruption detection on a delta fetch as on a full pull.
// Returns ErrNotFound (wrapped) when the key is absent.
func (st *Store) ExportEntry(key string) ([]byte, uint64, error) {
	snap := st.Snapshot()
	e, ok := snap.entries[key]
	if !ok {
		return nil, snap.gen, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	payload, err := entryPayload(e)
	if err != nil {
		return nil, 0, err
	}
	return withTrailer(payload, ""), snap.gen, nil
}

// EntryDigests reports, for every entry, the CRC32-C of its canonical
// single-entry payload (the exact bytes ExportEntry would frame), plus the
// generation the digests describe. Two nodes agree on a key's digest iff
// they hold byte-identical statistics for it, so a digest diff identifies
// precisely the divergent entries.
func (st *Store) EntryDigests() (map[string]uint32, uint64, error) {
	snap := st.Snapshot()
	out := make(map[string]uint32, len(snap.entries))
	for k, e := range snap.entries {
		p, err := entryPayload(e)
		if err != nil {
			return nil, 0, err
		}
		out[k] = crc32.Checksum(p, crcTable)
	}
	return out, snap.gen, nil
}

// MergeEntries folds verified trailered entry streams (as produced by
// ExportEntry) into the current entry set as a UNION, committing one
// generation for the whole batch. Semantics mirror MergeSnapshot: stream
// entries win except for keys the skip callback claims, and local-only keys
// are never deleted. An empty batch (or one that changes no key) commits
// nothing and returns the current generation.
func (st *Store) MergeEntries(streams [][]byte, skip func(key string) bool) (uint64, error) {
	incoming := map[string]*stats.IndexStats{}
	for _, data := range streams {
		_, c, err := verifiedStream(data)
		if err != nil {
			return 0, fmt.Errorf("catalog: merge entries: %w", err)
		}
		maps.Copy(incoming, entriesOf(c))
	}
	return st.merge(incoming, skip)
}
