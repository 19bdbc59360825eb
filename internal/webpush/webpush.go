// Package webpush defines the Web Push data model shared by the push
// service (internal/fcm), the Service Worker runtime
// (internal/serviceworker), and the instrumented browser
// (internal/browser): notification options as exposed by the Notifications
// API, push messages as delivered by the Push API, and subscriptions.
package webpush

import (
	"encoding/json"
	"fmt"
	"time"
)

// Action is a custom button attached to a notification.
type Action struct {
	Action string `json:"action"` // identifier reported on click
	Title  string `json:"title"`  // button label
}

// Notification mirrors the customizable parameters of a web notification
// (§2.2): title, body, target URL, icon, display image, and action
// buttons.
type Notification struct {
	Title     string   `json:"title"`
	Body      string   `json:"body"`
	Icon      string   `json:"icon,omitempty"`
	Image     string   `json:"image,omitempty"`
	TargetURL string   `json:"target_url,omitempty"`
	Tag       string   `json:"tag,omitempty"`
	Actions   []Action `json:"actions,omitempty"`
}

// Validate reports an error for notifications the browser would refuse to
// display (an empty title).
func (n Notification) Validate() error {
	if n.Title == "" {
		return fmt.Errorf("webpush: notification requires a title")
	}
	return nil
}

// Message is a push message as carried by the push service: an opaque
// payload destined to a single service-worker subscription. The unique
// Token identifies the subscription (and thus the SW) the message is for,
// mirroring FCM's per-user, per-SW registration ID.
type Message struct {
	Token   string          `json:"token"`
	Data    json.RawMessage `json:"data"`
	TTL     time.Duration   `json:"ttl,omitempty"`
	Expired bool            `json:"-"`
}

// Payload is the conventional JSON shape ad networks in this simulation
// put in Message.Data: either a ready-to-show notification, or an ad id
// the service worker resolves by contacting the ad server (as real push
// ad networks do).
type Payload struct {
	Notification *Notification `json:"notification,omitempty"`
	AdID         string        `json:"ad_id,omitempty"`
	CampaignHint string        `json:"c,omitempty"` // opaque tracking blob
}

// EncodePayload marshals a Payload for Message.Data.
func EncodePayload(p Payload) json.RawMessage {
	b, err := json.Marshal(p)
	if err != nil {
		// Payload contains only marshalable fields; this is unreachable.
		panic(fmt.Sprintf("webpush: encode payload: %v", err))
	}
	return b
}

// DecodePayload unmarshals Message.Data produced by EncodePayload.
func DecodePayload(data json.RawMessage) (Payload, error) {
	var p Payload
	if err := json.Unmarshal(data, &p); err != nil {
		return Payload{}, fmt.Errorf("webpush: decode payload: %w", err)
	}
	return p, nil
}

// Subscription represents a push subscription held by a browser: the
// registration token, the push-service endpoint URL the application
// server uses to send to it, and the origin + SW script that own it.
type Subscription struct {
	Token    string `json:"token"`
	Endpoint string `json:"endpoint"`
	Origin   string `json:"origin"`
	SWURL    string `json:"sw_url"`
}
