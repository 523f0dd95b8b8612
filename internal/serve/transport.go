package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ShardRows is one partition's answer to a row-gather: for each requested
// global source row, in request order, the fused score row, the
// precomputed greedy argmax, and optionally the per-feature rows. All rows
// share NTargets columns. Version stamps the engine version every row came
// from — the Router's version-skew rule is enforced on this field.
//
// Slices may alias partition memory (local transport) and must be treated
// as read-only by callers.
type ShardRows struct {
	Version  uint64
	NTargets int
	Greedy   []int
	Fused    [][]float64
	Ms       [][]float64 // nil when the structural feature degraded
	Mn       [][]float64 // nil when the semantic feature degraded
	Ml       [][]float64 // nil when the string feature degraded
}

// ReplicaMeta describes a replica to the router: which slice of which
// split it holds, what engine version it serves, and the global name
// tables (with a fingerprint so agreement across replicas is cheap to
// verify on every probe).
type ReplicaMeta struct {
	Partition int      `json:"partition"`
	Total     int      `json:"total"`
	Version   uint64   `json:"version"`
	TopK      int      `json:"top_k"`
	NamesFP   uint64   `json:"names_fp"`
	SrcNames  []string `json:"src_names,omitempty"`
	TgtNames  []string `json:"tgt_names,omitempty"`
}

// Transport is the row-gather contract between a Router and one replica
// partition. The two implementations are LocalTransport (same process,
// zero-copy) and HTTPTransport (separate ceaffd -replica process, framed
// binary protocol); the Router produces bit-identical decisions over
// either, because scores cross every transport as exact float64 bits.
type Transport interface {
	// Meta fetches the replica's self-description. Name tables are
	// included so the router can build its ring and decision tables.
	Meta(ctx context.Context) (*ReplicaMeta, error)
	// Gather fetches rows at wantVersion; a replica at any other version
	// must refuse with ErrVersionSkew rather than answer.
	Gather(ctx context.Context, wantVersion uint64, rows []int, withFeatures bool) (*ShardRows, error)
	// Ready probes replica health (the router's /readyz probe loop) and
	// reports the engine version the replica currently serves — liveness
	// and version agreement in one cheap round trip.
	Ready(ctx context.Context) (uint64, error)
	// Addr identifies the replica in logs and errors.
	Addr() string
}

// LocalTransport serves a Transport from an in-process Partition — the
// `ceaffd -shards N` topology (NewShardedRouter), and the bit-identity
// baseline the HTTP transport is tested against.
type LocalTransport struct {
	P *Partition
}

// Meta implements Transport.
func (t *LocalTransport) Meta(ctx context.Context) (*ReplicaMeta, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.P.Meta(), nil
}

// Gather implements Transport straight off partition memory. It reads
// memory and cannot block, so it ignores ctx: the caller's deadline must
// never surface as a partition failure and feed the router's breakers.
func (t *LocalTransport) Gather(_ context.Context, wantVersion uint64, rows []int, withFeatures bool) (*ShardRows, error) {
	return t.P.GatherLocal(wantVersion, rows, withFeatures)
}

// Ready implements Transport; an in-process partition is always reachable.
func (t *LocalTransport) Ready(ctx context.Context) (uint64, error) {
	return t.P.Version(), ctx.Err()
}

// Addr implements Transport.
func (t *LocalTransport) Addr() string {
	return fmt.Sprintf("local/%d of %d", t.P.Index(), t.P.Total())
}

// HTTPTransport speaks the framed binary gather protocol to a replica
// ceaffd over HTTP: each request is one frame POSTed to /v1/shard, each
// response one frame back. HTTP supplies connection pooling, deadlines
// and the shared /readyz health surface; the frame supplies integrity
// (CRC) and bit-exact score transfer.
type HTTPTransport struct {
	// Base is the replica's root URL, e.g. "http://127.0.0.1:9301".
	Base string
	// Client defaults to http.DefaultClient. Per-call deadlines arrive
	// via context, so the client itself needs no timeout.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// Addr implements Transport.
func (t *HTTPTransport) Addr() string { return t.Base }

// roundTrip POSTs one frame and decodes the one frame that comes back.
func (t *HTTPTransport) roundTrip(ctx context.Context, msgType byte, payload []byte) (byte, []byte, error) {
	frame := appendWireFrame(nil, msgType, payload)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+"/v1/shard", bytes.NewReader(frame))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("%w: %s: http %d", ErrRemote, t.Base, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxWirePayload+wireHeaderLen+4+1))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %s: %v", ErrWireFrame, t.Base, err)
	}
	mt, p, err := decodeWireFrame(body)
	if err != nil {
		return 0, nil, err
	}
	if mt == wireMsgError {
		return 0, nil, decodeWireError(p)
	}
	return mt, p, nil
}

// Meta implements Transport via a metaReq frame.
func (t *HTTPTransport) Meta(ctx context.Context) (*ReplicaMeta, error) {
	mt, p, err := t.roundTrip(ctx, wireMsgMetaReq, nil)
	if err != nil {
		return nil, err
	}
	if mt != wireMsgMetaResp {
		return nil, fmt.Errorf("%w: meta answered with frame type %#x", ErrWireFrame, mt)
	}
	var m ReplicaMeta
	if err := json.Unmarshal(p, &m); err != nil {
		return nil, fmt.Errorf("%w: meta payload: %v", ErrWireFrame, err)
	}
	return &m, nil
}

// Gather implements Transport via a gatherReq frame.
func (t *HTTPTransport) Gather(ctx context.Context, wantVersion uint64, rows []int, withFeatures bool) (*ShardRows, error) {
	payload := encodeGatherReq(gatherReq{WantVersion: wantVersion, WithFeatures: withFeatures, Rows: rows})
	mt, p, err := t.roundTrip(ctx, wireMsgGatherReq, payload)
	if err != nil {
		return nil, err
	}
	if mt != wireMsgGatherResp {
		return nil, fmt.Errorf("%w: gather answered with frame type %#x", ErrWireFrame, mt)
	}
	return decodeShardRows(p)
}

// Ready implements Transport against the replica's ordinary /readyz,
// whose body already reports the served engine version.
func (t *HTTPTransport) Ready(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/readyz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%w: %s: readyz http %d", ErrRemote, t.Base, resp.StatusCode)
	}
	var body readyzBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err != nil {
		return 0, fmt.Errorf("%w: %s: readyz body: %v", ErrRemote, t.Base, err)
	}
	return body.EngineVersion, nil
}
