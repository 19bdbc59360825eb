// Package browser implements the instrumented browser at the heart of
// PushAdMiner's data-collection module (§4). It reproduces, in
// simulation, the observable behaviour of the paper's patched Chromium:
// automatic notification-permission granting (the PermissionContextBase
// hook), service worker registration and push subscription, fine-grained
// logging of SW network requests, notification display (the
// showNotification hook), automatic notification clicks after a short
// delay (the MessageCenter Add/Click hook), and full recording of the
// resulting navigation including every redirect hop and the landing
// page.
package browser

// EventKind labels instrumentation events: the name of the span each
// event becomes on the browser's tracer.
type EventKind string

// Instrumentation events, in the order they typically occur for one WPN
// (Figure 3's steps).
const (
	EvVisit               EventKind = "visit"
	EvJSPermissionPrompt  EventKind = "js_permission_prompt" // double-permission pre-prompt
	EvPermissionRequested EventKind = "permission_requested"
	EvPermissionGranted   EventKind = "permission_granted"
	EvPermissionDenied    EventKind = "permission_denied"
	EvPermissionQuieted   EventKind = "permission_quieted" // suppressed by quiet UI
	EvSWRegistered        EventKind = "sw_registered"
	EvSWRequest           EventKind = "sw_request"
	EvPageRequest         EventKind = "page_request"
	EvPushReceived        EventKind = "push_received"
	EvNotificationShown   EventKind = "notification_shown"
	EvNotificationClicked EventKind = "notification_clicked"
	EvNavigation          EventKind = "navigation"
	EvRedirect            EventKind = "redirect"
	EvLandingPage         EventKind = "landing_page"
	EvTabCrashed          EventKind = "tab_crashed"
)
