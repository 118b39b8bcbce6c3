package client

import "time"

// BackoffDelay exposes the retry sleep to the external tests.
func (c *Client) BackoffDelay(attempt int) time.Duration { return c.backoffDelay(attempt) }
