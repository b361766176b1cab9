// Store-peer protocol, server side: an http.Handler exposing a store's
// objects for read-through GETs and write-behind PUTs from peers (see
// peer.go). swpfd mounts it under /objects/ so workers and sibling
// daemons can share one result store.
package store

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
)

// maxObjectBytes bounds a PUT body; real objects (result + optional
// trace JSON) are far smaller, so anything bigger is garbage.
const maxObjectBytes = 64 << 20

// NewHandler serves the store-peer protocol for s:
//
//	GET  /objects/{key}  -> the stored object file, or 404 when absent
//	PUT  /objects/{key}  -> 204 after validating and storing the object
//
// PUT bodies are validated the same way read-through fetches are: the
// object must decode and carry Key == {key}, otherwise 400 — a peer
// can never corrupt the store.
func NewHandler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/objects/", func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/objects/")
		if key == "" || strings.Contains(key, "/") || !validKey(key) {
			peerError(w, http.StatusBadRequest, "bad object key")
			return
		}
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			// Serve the validated file as it is, so a read-through
			// copy is byte-identical to its origin.
			data, _, ok := s.loadObject(key)
			if !ok {
				peerError(w, http.StatusNotFound, "object not found")
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(data)
		case http.MethodPut:
			data, err := io.ReadAll(io.LimitReader(r.Body, maxObjectBytes+1))
			if err != nil {
				peerError(w, http.StatusBadRequest, "read body")
				return
			}
			if len(data) > maxObjectBytes {
				peerError(w, http.StatusRequestEntityTooLarge, "object too large")
				return
			}
			if _, ok := decodeObject(data, key); !ok {
				peerError(w, http.StatusBadRequest, "object does not match key")
				return
			}
			s.writeObject(key, data)
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, HEAD, PUT")
			peerError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	})
	return mux
}

// validKey reports whether key looks like a store key: lowercase hex,
// 64 chars (SHA-256).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func peerError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
