// Package llm provides the large-language-model substrate of the ZeroED
// reproduction. The paper drives four reasoning tasks through zero-shot
// prompting (criteria reasoning, distribution-analysis function generation,
// guideline generation, and holistic labeling) plus contrastive criteria
// refinement and semantic error augmentation. Offline, this package
// implements a *simulated* LLM: a deterministic reasoning engine behind the
// same prompt interface.
//
// Faithfulness contract (README's opening section and its "Package map"
// row for internal/llm summarize it):
//
//   - Information flow matches the paper. Every method first renders the
//     exact prompt text (task description + serialized data + auxiliary
//     content) and charges input tokens for it; results are derived ONLY
//     from what the prompt contains, then rendered to text and charged as
//     output tokens. Nothing peeks at ground truth.
//   - Model quality is an explicit knob. Profiles (Qwen2.5-72b, Llama3.1
//     family, Qwen2.5-7b, GPT-4o-mini) differ in reasoning skill and
//     seeded label noise, reproducing the capability ordering of Table V.
//   - Token accounting (~4 chars/token, the usual heuristic) makes the
//     token-cost experiments (Fig. 8) regenerable.
package llm

import (
	"hash/fnv"
	"math/rand"
	"sync"
)

// Tokens estimates the token count of a prompt or completion string using
// the standard ~4 characters/token heuristic.
func Tokens(s string) int64 {
	if len(s) == 0 {
		return 0
	}
	return int64(len(s)/4 + 1)
}

// Usage accumulates token and call counts across LLM invocations.
type Usage struct {
	InputTokens  int64
	OutputTokens int64
	Calls        int64
}

// Add merges another usage record into u.
func (u *Usage) Add(v Usage) {
	u.InputTokens += v.InputTokens
	u.OutputTokens += v.OutputTokens
	u.Calls += v.Calls
}

// Total returns input+output tokens.
func (u Usage) Total() int64 { return u.InputTokens + u.OutputTokens }

// Client is the simulated LLM endpoint. It is safe for concurrent use.
type Client struct {
	profile Profile

	mu     sync.Mutex
	usage  Usage
	cached map[uint64]bool // prompt-prefix cache (see chargeCached)
}

// NewClient creates a client backed by the given model profile.
func NewClient(p Profile) *Client {
	return &Client{profile: p}
}

// Usage returns a snapshot of accumulated token usage.
func (c *Client) Usage() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usage
}

// charge records one call with the given prompt and completion text.
func (c *Client) charge(prompt, completion string) {
	c.mu.Lock()
	c.usage.InputTokens += Tokens(prompt)
	c.usage.OutputTokens += Tokens(completion)
	c.usage.Calls++
	c.mu.Unlock()
}

// chargeCached records one call whose prompt has a shared prefix (e.g. a
// per-attribute guideline reused across labeling batches). Serving stacks
// cache such prefixes (vLLM prefix caching, provider prompt caching), so
// the prefix's tokens are charged only on first sight; the per-call suffix
// is always charged.
func (c *Client) chargeCached(prefix, suffix, completion string) {
	h := fnv.New64a()
	h.Write([]byte(prefix))
	key := h.Sum64()
	c.mu.Lock()
	if c.cached == nil {
		c.cached = make(map[uint64]bool)
	}
	if !c.cached[key] {
		c.cached[key] = true
		c.usage.InputTokens += Tokens(prefix)
	}
	c.usage.InputTokens += Tokens(suffix)
	c.usage.OutputTokens += Tokens(completion)
	c.usage.Calls++
	c.mu.Unlock()
}

// rng derives a deterministic random source from the model seed and a
// context key, so that repeated runs and concurrent attribute processing
// stay reproducible.
func (c *Client) rng(key string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(key))
	return rand.New(rand.NewSource(c.profile.Seed ^ int64(h.Sum64())))
}
