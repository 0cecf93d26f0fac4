package registry

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// NewHTTPHandler exposes a Store over HTTP — the wire side of the
// Remote client, so a fleet of stateless wmxmld nodes can share one
// registry held by a single process. The route shapes mirror the Store
// methods:
//
//	GET  /owners                      ListOwners
//	PUT  /owners/{id}                 PutOwner
//	GET  /owners/{id}                 GetOwner
//	POST /owners/{id}/receipts        AddReceipt
//	GET  /owners/{id}/receipts        ListReceipts
//	GET  /owners/{id}/receipts/{rid}  GetReceipt
//	POST /owners/{id}/recipients      PutRecipient
//	GET  /owners/{id}/recipients      ListRecipients
//	GET  /owners/{id}/recipients/{rid} GetRecipient
//	POST /owners/{id}/plans           PutPlan
//	GET  /owners/{id}/plans           ListPlans
//	GET  /owners/{id}/plans/{digest}  GetPlan
//
// When clusterKey is non-empty every request must carry it as a Bearer
// token, read by BearerToken (fleet-internal auth — distinct from the
// per-owner keys, which stay end-to-end between clients and whichever
// node serves them). A missing token is a 401, a wrong one a 403.
//
// Owner-scoped GETs carry an ETag versioned per owner: any write under
// an owner bumps its version, and a GET with a matching If-None-Match
// returns 304 with no body. Versions are prefixed with a random
// per-process epoch so a restarted holder can never echo a version
// number that validates a stale cache. The ETag is read before the
// data, so a write racing a read can only make the tag stale (a
// needless refetch later), never fresher than the body it labels.
//
// Error mapping: ErrNotFound → 404, ErrDuplicate → 409, validation →
// 400, everything else → 500. The body is a JSON {"error": "..."}.
func NewHTTPHandler(store Store, clusterKey string) http.Handler {
	h := &apiHandler{store: store}
	if clusterKey != "" {
		sum := sha256.Sum256([]byte(clusterKey))
		h.keyDigest = sum[:]
	}
	var epoch [8]byte
	rand.Read(epoch[:])
	h.epoch = hex.EncodeToString(epoch[:])
	h.versions = make(map[string]uint64)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /owners", h.auth(h.listOwners))
	mux.HandleFunc("PUT /owners/{id}", h.auth(writeRecord(h, func(o Owner) string { return o.ID }, store.PutOwner)))
	mux.HandleFunc("GET /owners/{id}", h.auth(h.getOwner))
	mux.HandleFunc("POST /owners/{id}/receipts", h.auth(writeRecord(h, func(r Receipt) string { return r.Owner }, store.AddReceipt)))
	mux.HandleFunc("GET /owners/{id}/receipts", h.auth(h.listReceipts))
	mux.HandleFunc("GET /owners/{id}/receipts/{rid}", h.auth(h.getReceipt))
	mux.HandleFunc("POST /owners/{id}/recipients", h.auth(writeRecord(h, func(rc Recipient) string { return rc.Owner }, store.PutRecipient)))
	mux.HandleFunc("GET /owners/{id}/recipients", h.auth(h.listRecipients))
	mux.HandleFunc("GET /owners/{id}/recipients/{rid}", h.auth(h.getRecipient))
	mux.HandleFunc("POST /owners/{id}/plans", h.auth(writeRecord(h, func(p PlanRecord) string { return p.Owner }, store.PutPlan)))
	mux.HandleFunc("GET /owners/{id}/plans", h.auth(h.listPlans))
	mux.HandleFunc("GET /owners/{id}/plans/{digest}", h.auth(h.getPlan))
	return mux
}

type apiHandler struct {
	store     Store
	keyDigest []byte // sha256 of the cluster key; nil = no auth

	epoch    string // random per-process ETag prefix
	mu       sync.Mutex
	versions map[string]uint64 // owner -> write version
}

// maxAPIBody bounds write bodies. Plans carry whole canonical documents,
// so the bound is generous; it exists to stop an unauthenticated-path
// mistake from buffering unbounded input, not to police tenants.
const maxAPIBody = 128 << 20

// BearerToken returns the credential in r's Authorization header
// ("Bearer <token>"), or "" when there is none. The scheme is
// case-insensitive per RFC 9110, and some proxies normalize its casing.
func BearerToken(r *http.Request) string {
	scheme, rest, ok := strings.Cut(r.Header.Get("Authorization"), " ")
	if !ok || !strings.EqualFold(scheme, "Bearer") {
		return ""
	}
	return strings.TrimSpace(rest)
}

func (h *apiHandler) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if h.keyDigest != nil {
			token := BearerToken(r)
			if token == "" {
				apiError(w, http.StatusUnauthorized, errors.New("registry api: missing bearer token"))
				return
			}
			sum := sha256.Sum256([]byte(token))
			if subtle.ConstantTimeCompare(sum[:], h.keyDigest) != 1 {
				apiError(w, http.StatusForbidden, errors.New("registry api: bad cluster key"))
				return
			}
		}
		next(w, r)
	}
}

// etag returns the current tag for an owner's records.
func (h *apiHandler) etag(owner string) string {
	h.mu.Lock()
	v := h.versions[owner]
	h.mu.Unlock()
	return fmt.Sprintf(`"%s-%d"`, h.epoch, v)
}

// bump invalidates an owner's ETag after a successful write.
func (h *apiHandler) bump(owner string) {
	h.mu.Lock()
	h.versions[owner]++
	h.mu.Unlock()
}

func apiError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// storeError maps a Store error onto a status code.
func storeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		apiError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrDuplicate):
		apiError(w, http.StatusConflict, err)
	default:
		apiError(w, http.StatusBadRequest, err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// serveTagged writes an owner-scoped response with its ETag, honoring
// If-None-Match. The tag is captured before the store read (see the
// NewHTTPHandler doc for why that direction is the safe race).
func (h *apiHandler) serveTagged(w http.ResponseWriter, r *http.Request, owner string, read func() (any, error)) {
	tag := h.etag(owner)
	if r.Header.Get("If-None-Match") == tag {
		w.Header().Set("ETag", tag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	v, err := read()
	if err != nil {
		storeError(w, err)
		return
	}
	w.Header().Set("ETag", tag)
	writeJSON(w, v)
}

// writeRecord is the one write route: it decodes a T from the body,
// checks that the record names the path's owner, stores it, and bumps
// that owner's ETag.
func writeRecord[T any](h *apiHandler, owner func(T) string, store func(T) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var rec T
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAPIBody)).Decode(&rec); err != nil {
			apiError(w, http.StatusBadRequest, fmt.Errorf("registry api: decode body: %w", err))
			return
		}
		id := r.PathValue("id")
		if got := owner(rec); got != id {
			apiError(w, http.StatusBadRequest, fmt.Errorf("registry api: body owner %q does not match path owner %q", got, id))
			return
		}
		if err := store(rec); err != nil {
			storeError(w, err)
			return
		}
		h.bump(id)
		w.WriteHeader(http.StatusNoContent)
	}
}

func (h *apiHandler) listOwners(w http.ResponseWriter, r *http.Request) {
	owners, err := h.store.ListOwners()
	if err != nil {
		storeError(w, err)
		return
	}
	writeJSON(w, owners)
}

func (h *apiHandler) getOwner(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("id")
	h.serveTagged(w, r, owner, func() (any, error) { return h.store.GetOwner(owner) })
}

func (h *apiHandler) listReceipts(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("id")
	h.serveTagged(w, r, owner, func() (any, error) { return h.store.ListReceipts(owner) })
}

func (h *apiHandler) getReceipt(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("id")
	h.serveTagged(w, r, owner, func() (any, error) { return h.store.GetReceipt(owner, r.PathValue("rid")) })
}

func (h *apiHandler) listRecipients(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("id")
	h.serveTagged(w, r, owner, func() (any, error) { return h.store.ListRecipients(owner) })
}

func (h *apiHandler) getRecipient(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("id")
	h.serveTagged(w, r, owner, func() (any, error) { return h.store.GetRecipient(owner, r.PathValue("rid")) })
}

func (h *apiHandler) listPlans(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("id")
	h.serveTagged(w, r, owner, func() (any, error) { return h.store.ListPlans(owner) })
}

func (h *apiHandler) getPlan(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("id")
	h.serveTagged(w, r, owner, func() (any, error) { return h.store.GetPlan(owner, r.PathValue("digest")) })
}
