package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Remote is a Store backed by another process's registry over HTTP (the
// NewHTTPHandler wire format). It is what makes a wmxmld node
// stateless: every node in a fleet points its Remote at the same
// registry holder and serves any tenant, with no local log to own.
//
// Reads of owner-scoped records go through a small per-path cache
// validated with the holder's ETags: within CacheTTL a cached entry is
// served as-is; past it the entry is revalidated with If-None-Match,
// which costs a round trip but no body transfer or decode when nothing
// changed (304). A TTL of zero keeps the cache in permanent
// revalidation mode — every read checks the holder, but unchanged data
// still never re-transfers. Writes through this client invalidate the
// owner's cached entries immediately, so a node always reads its own
// writes; writes from *other* nodes become visible within CacheTTL at
// the latest. Plan records are never cached — they embed whole
// canonical documents and have their own digest-addressed server-side
// cache in front of them.
type Remote struct {
	base   string
	key    string
	ttl    time.Duration
	client *http.Client

	mu    sync.Mutex
	cache map[string]*remoteEntry
	// gen counts invalidations. A read stores what it fetched only if
	// gen has not moved since the read started: a write through this
	// client that lands while the fetch is on the wire may have made
	// the fetched value stale, and caching it would serve the pre-write
	// record for a full TTL.
	gen uint64
}

type remoteEntry struct {
	etag string
	// decoded is the unmarshaled value for the path (Owner, []Receipt,
	// ...), stored once per transfer. Caching the decoded form instead
	// of body bytes keeps re-decode cost off the TTL-fresh read path —
	// a warm detect's ListReceipts is a map hit plus a slice-header
	// copy, not a JSON parse of every safeguarded query set. Entries
	// are immutable once stored; list accessors hand out shallow
	// copies (the Memory store's contract).
	decoded any
	expires time.Time
}

// remoteCacheMax bounds the cache map. Overflow drops the whole cache —
// crude, but the steady-state working set (a few paths per active
// owner) sits far below the bound, so the reset only fires under
// pathological churn.
const remoteCacheMax = 4096

// RemoteOptions tunes a Remote store.
type RemoteOptions struct {
	// Key is the fleet's cluster key, sent as a Bearer token. Must match
	// the holder's --cluster-key.
	Key string
	// CacheTTL is how long a cached read is served without revalidation.
	// Zero means every read revalidates against the holder's ETag (reads
	// stay coherent with other writers at one round trip per read).
	CacheTTL time.Duration
	// HTTPClient overrides the transport (tests, timeouts). Defaults to
	// a client with a 30s timeout.
	HTTPClient *http.Client
}

// OpenRemote builds a Store talking to the registry API at baseURL
// (e.g. "http://registry-holder:8080/internal/registry").
func OpenRemote(baseURL string, opts RemoteOptions) (*Remote, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("registry: remote: bad base url %q", baseURL)
	}
	client := opts.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Remote{
		base:   strings.TrimRight(baseURL, "/"),
		key:    opts.Key,
		ttl:    opts.CacheTTL,
		client: client,
		cache:  make(map[string]*remoteEntry),
	}, nil
}

func (rm *Remote) newRequest(method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, rm.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("registry: remote: %w", err)
	}
	if rm.key != "" {
		req.Header.Set("Authorization", "Bearer "+rm.key)
	}
	return req, nil
}

// remoteError turns a non-2xx response into the Store error vocabulary.
func remoteError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	switch resp.StatusCode {
	case http.StatusNotFound:
		return ErrNotFound
	case http.StatusConflict:
		return ErrDuplicate
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &envelope) == nil && envelope.Error != "" {
		return fmt.Errorf("registry: remote: %s (status %d)", envelope.Error, resp.StatusCode)
	}
	return fmt.Errorf("registry: remote: status %d", resp.StatusCode)
}

// fetch performs one conditional GET. It returns the body on 2xx, or
// notModified=true on a 304 answering the given validator.
func (rm *Remote) fetch(path, etag string) (data []byte, newTag string, notModified bool, err error) {
	req, err := rm.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return nil, "", false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := rm.client.Do(req)
	if err != nil {
		return nil, "", false, fmt.Errorf("registry: remote: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified:
		io.Copy(io.Discard, resp.Body)
		return nil, "", true, nil
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		data, err = io.ReadAll(resp.Body)
		if err != nil {
			return nil, "", false, fmt.Errorf("registry: remote: read %s: %w", path, err)
		}
		return data, resp.Header.Get("ETag"), false, nil
	default:
		return nil, "", false, remoteError(resp)
	}
}

// remoteGet fetches path, decoded as T. Cacheable paths go through the
// ETag cache; a TTL-fresh entry is returned without touching the wire
// or the decoder (the cached value is decoded once per transfer, at
// store time). The same path must always be read as the same T.
func remoteGet[T any](rm *Remote, path string, cacheable bool) (T, error) {
	var zero T
	var etag string
	var gen uint64
	if cacheable {
		rm.mu.Lock()
		gen = rm.gen
		if e, ok := rm.cache[path]; ok {
			if time.Now().Before(e.expires) {
				v := e.decoded.(T)
				rm.mu.Unlock()
				return v, nil
			}
			etag = e.etag
		}
		rm.mu.Unlock()
	}
	data, tag, notModified, err := rm.fetch(path, etag)
	if err != nil {
		return zero, err
	}
	if notModified {
		rm.mu.Lock()
		if e, ok := rm.cache[path]; ok {
			e.expires = time.Now().Add(rm.ttl)
			v := e.decoded.(T)
			rm.mu.Unlock()
			return v, nil
		}
		rm.mu.Unlock()
		// The entry was invalidated between sending If-None-Match and
		// the 304 landing: retry without a validator.
		return remoteGet[T](rm, path, false)
	}
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return zero, err
	}
	if cacheable && tag != "" {
		rm.mu.Lock()
		if rm.gen == gen {
			if len(rm.cache) >= remoteCacheMax {
				rm.cache = make(map[string]*remoteEntry)
			}
			rm.cache[path] = &remoteEntry{etag: tag, decoded: v, expires: time.Now().Add(rm.ttl)}
		}
		rm.mu.Unlock()
	}
	return v, nil
}

// copyList returns a shallow copy of a cached list so callers may
// reorder or append without corrupting the cache entry; always
// non-nil, matching the wire's empty-array decoding.
func copyList[T any](v []T) []T {
	out := make([]T, len(v))
	copy(out, v)
	return out
}

// write sends a mutation and invalidates the owner's cached reads.
func (rm *Remote) write(method, path, owner string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("registry: remote: %w", err)
	}
	req, err := rm.newRequest(method, path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rm.client.Do(req)
	if err != nil {
		return fmt.Errorf("registry: remote: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return remoteError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	rm.invalidate(owner)
	return nil
}

// invalidate drops every cached path under an owner and bumps the
// generation, so reads already on the wire do not store their result.
func (rm *Remote) invalidate(owner string) {
	prefix := "/owners/" + url.PathEscape(owner)
	rm.mu.Lock()
	rm.gen++
	for k := range rm.cache {
		if strings.HasPrefix(k, prefix) && (len(k) == len(prefix) || k[len(prefix)] == '/') {
			delete(rm.cache, k)
		}
	}
	rm.mu.Unlock()
}

func ownerPath(owner string, parts ...string) string {
	var b strings.Builder
	b.WriteString("/owners/")
	b.WriteString(url.PathEscape(owner))
	for _, p := range parts {
		b.WriteByte('/')
		b.WriteString(url.PathEscape(p))
	}
	return b.String()
}

// PutOwner registers or replaces an owner on the holder.
func (rm *Remote) PutOwner(o Owner) error {
	if err := o.Validate(); err != nil {
		return err
	}
	return rm.write(http.MethodPut, ownerPath(o.ID), o.ID, o)
}

// GetOwner returns the owner or ErrNotFound.
func (rm *Remote) GetOwner(id string) (Owner, error) {
	return remoteGet[Owner](rm, ownerPath(id), true)
}

// ListOwners returns every owner, id-sorted. Uncached: it spans all
// owners, so no single owner's version can validate it.
func (rm *Remote) ListOwners() ([]Owner, error) {
	out, err := remoteGet[[]Owner](rm, "/owners", false)
	if err != nil {
		return nil, err
	}
	return copyList(out), nil
}

// AddReceipt appends a receipt; (owner, id) must be new.
func (rm *Remote) AddReceipt(r Receipt) error {
	if err := validateReceipt(r); err != nil {
		return err
	}
	return rm.write(http.MethodPost, ownerPath(r.Owner, "receipts"), r.Owner, r)
}

// GetReceipt returns one receipt or ErrNotFound.
func (rm *Remote) GetReceipt(owner, id string) (Receipt, error) {
	return remoteGet[Receipt](rm, ownerPath(owner, "receipts", id), true)
}

// ListReceipts returns an owner's receipts in insertion order.
func (rm *Remote) ListReceipts(owner string) ([]Receipt, error) {
	out, err := remoteGet[[]Receipt](rm, ownerPath(owner, "receipts"), true)
	if err != nil {
		return nil, err
	}
	return copyList(out), nil
}

// PutRecipient registers (or re-labels) a recipient.
func (rm *Remote) PutRecipient(rc Recipient) error {
	if err := rc.Validate(); err != nil {
		return err
	}
	return rm.write(http.MethodPost, ownerPath(rc.Owner, "recipients"), rc.Owner, rc)
}

// GetRecipient returns one recipient or ErrNotFound.
func (rm *Remote) GetRecipient(owner, id string) (Recipient, error) {
	return remoteGet[Recipient](rm, ownerPath(owner, "recipients", id), true)
}

// ListRecipients returns an owner's recipients in first-registration
// order.
func (rm *Remote) ListRecipients(owner string) ([]Recipient, error) {
	out, err := remoteGet[[]Recipient](rm, ownerPath(owner, "recipients"), true)
	if err != nil {
		return nil, err
	}
	return copyList(out), nil
}

// PutPlan stores or replaces a compiled delivery plan.
func (rm *Remote) PutPlan(p PlanRecord) error {
	if err := p.Validate(); err != nil {
		return err
	}
	return rm.write(http.MethodPost, ownerPath(p.Owner, "plans"), p.Owner, p)
}

// GetPlan returns the plan for (owner, digest) or ErrNotFound. Never
// cached (see the type doc).
func (rm *Remote) GetPlan(owner, digest string) (PlanRecord, error) {
	return remoteGet[PlanRecord](rm, ownerPath(owner, "plans", digest), false)
}

// ListPlans returns an owner's plans in first-store order. Never
// cached.
func (rm *Remote) ListPlans(owner string) ([]PlanRecord, error) {
	out, err := remoteGet[[]PlanRecord](rm, ownerPath(owner, "plans"), false)
	if err != nil {
		return nil, err
	}
	return copyList(out), nil
}

// Close drops idle connections. The holder's store stays open — a
// Remote holds no exclusive resources.
func (rm *Remote) Close() error {
	rm.client.CloseIdleConnections()
	return nil
}

var _ Store = (*Remote)(nil)
