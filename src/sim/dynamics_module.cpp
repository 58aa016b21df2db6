#include "sim/dynamics_module.hpp"

#include <algorithm>
#include <cmath>

namespace cod::sim {

using math::Vec3;

namespace {
constexpr double kCargoHalf = 0.5;  // cargo is a 1 m cube
}

DynamicsModule::DynamicsModule(Config cfg)
    : core::LogicalProcess("dynamics"),
      cfg_(std::move(cfg)),
      terrain_(physics::Terrain::rolling(141, 91, 1.0, cfg_.terrainAmplitudeM,
                                         cfg_.terrainSeed)),
      wind_(cfg_.wind, cfg_.windSeed),
      collisionWorld_(buildCollisionWorld(cfg_.course)) {
  if (cfg_.useLoadChart) safety_.setLoadChart(crane::LoadChart::typical25t());
  vehicle_.setPosition(cfg_.course.startPosition, cfg_.course.startHeadingRad);
  state_.carrierPosition = {cfg_.course.startPosition.x,
                            cfg_.course.startPosition.y, 0.0};
  state_.carrierHeadingRad = cfg_.course.startHeadingRad;
  cargoPos_ = {cfg_.course.pickZone.center.x, cfg_.course.pickZone.center.y,
               terrain_.height(cfg_.course.pickZone.center.x,
                               cfg_.course.pickZone.center.y) +
                   kCargoHalf};
  pendulum_.reset(kin_.boomTip(state_), state_.cableLengthM);
  barHitCooldown_.assign(cfg_.course.bars.size(), 0.0);
}

void DynamicsModule::bind(core::CommunicationBackbone& cb) {
  cb_ = &cb;
  cb.attach(*this);
  statePub_ = cb.publishObjectClass(*this, kClassCraneState);
  eventPub_ = cb.publishObjectClass(*this, kClassScenarioEvents);
  controlsSub_ = cb.subscribeObjectClass(*this, kClassCraneControls);
}

void DynamicsModule::step(double now) {
  if (!lastNow_) {
    lastNow_ = now;
    publishState();
    return;
  }
  // Catch the integrator up to the cluster clock in fixed steps.
  while (simTime_ + cfg_.fixedDtSec <= now) {
    if (cb_ != nullptr) {
      // Decoded at once: latest() is only valid until the next tick().
      if (const core::Reflection* r = cb_->latest(controlsSub_))
        controls_ = decodeControls(r->attrs);
    }
    substep(cfg_.fixedDtSec);
    publishState();
  }
  lastNow_ = now;
}

void DynamicsModule::substep(double dt) {
  simTime_ += dt;

  // Engine: demanded by pedal or any hydraulic lever.
  const double demand = std::max(
      {controls_.throttle, std::abs(controls_.joystickSlew),
       std::abs(controls_.joystickLuff), std::abs(controls_.joystickTelescope),
       std::abs(controls_.joystickHoist)});
  engine_.step(controls_.ignition, demand, dt);
  state_.engineOn = engine_.on();
  state_.engineRpm = engine_.rpm();

  // Outriggers: deploy/stow per the dashboard switch; the carrier cannot
  // drive while the pads are (even partially) down.
  if (controls_.outriggersDeploy) {
    outriggers_.requestDeploy();
  } else {
    outriggers_.requestStow();
  }
  outriggers_.step(dt);

  // Site wind.
  wind_.step(dt);

  // Carrier over the terrain.
  physics::VehicleInput vin;
  vin.throttle = state_.engineOn && outriggers_.stowed() ? controls_.throttle : 0.0;
  vin.brake = controls_.brake;
  vin.steer = controls_.steering;
  vin.reverse = controls_.reverse;
  vehicle_.step(vin, terrain_, dt);
  state_.carrierPosition = vehicle_.position3();
  state_.carrierHeadingRad = vehicle_.heading();
  state_.carrierPitchRad = vehicle_.pitch();
  state_.carrierRollRad = vehicle_.roll();
  state_.carrierSpeedMps = vehicle_.speed();

  // Crane joints.
  joints_.step(state_, controls_, dt);

  // Lift-hook inertia oscillation: pivot follows the boom tip; wind drags
  // the hanging cargo.
  pendulum_.setPivot(kin_.boomTip(state_));
  pendulum_.setLength(state_.cableLengthM);
  if (state_.cargoAttached)
    pendulum_.applyForce(wind_.dragForce(cfg_.cargoDragAreaM2));
  pendulum_.step(dt);
  const Vec3 hook = pendulum_.bobPosition();

  // Cargo latch / release.
  if (controls_.hookLatch && !state_.cargoAttached) {
    const Vec3 cargoTop = cargoPos_ + Vec3{0, 0, kCargoHalf};
    if ((hook - cargoTop).norm() <= cfg_.hookCaptureRadiusM) {
      state_.cargoAttached = true;
      state_.hookLoadKg = cfg_.course.cargoMassKg;
      emitEvent("cargoAttached", -1, cargoPos_);
    }
  } else if (!controls_.hookLatch && state_.cargoAttached) {
    state_.cargoAttached = false;
    state_.hookLoadKg = 0.0;
    // The cargo settles onto the ground where it was released.
    cargoPos_.z = terrain_.height(cargoPos_.x, cargoPos_.y) + kCargoHalf;
    emitEvent("cargoDropped", -1, cargoPos_);
  }
  if (state_.cargoAttached) {
    cargoPos_ = hook - Vec3{0, 0, kCargoHalf + 0.15};
  }

  // Multi-level collision detection of the cargo against the bars (§3.6).
  collisionWorld_->world.setTransform(
      collisionWorld_->cargoId,
      math::Mat4::translation(cargoPos_));
  for (double& c : barHitCooldown_) c = std::max(0.0, c - dt);
  const auto contacts =
      collisionWorld_->world.queryOne(collisionWorld_->cargoId, &collStats_);
  for (const collision::Contact& c : contacts) {
    const std::uint32_t other =
        c.idA == collisionWorld_->cargoId ? c.idB : c.idA;
    const auto it = std::find(collisionWorld_->barIds.begin(),
                              collisionWorld_->barIds.end(), other);
    if (it == collisionWorld_->barIds.end()) continue;
    const std::size_t barIdx =
        static_cast<std::size_t>(it - collisionWorld_->barIds.begin());
    if (barHitCooldown_[barIdx] > 0.0) continue;
    barHitCooldown_[barIdx] = cfg_.barHitCooldownSec;
    ++barHitsEmitted_;
    emitEvent("barHit", static_cast<std::int64_t>(barIdx), c.point);
  }

  // Safety envelope.
  crane::SafetyEnvelope::Environment env;
  env.rolloverIndex = vehicle_.rolloverIndex();
  env.windSpeedMps = wind_.speed();
  env.outriggersDeployed = outriggers_.deployed();
  lastAssessment_ = safety_.assess(state_, kin_, env);
}

void DynamicsModule::publishState() {
  if (cb_ == nullptr) return;
  CraneStateMsg m;
  m.state = state_;
  m.boomTip = kin_.boomTip(state_);
  m.hookPosition = pendulum_.bobPosition();
  m.cargoPosition = cargoPos_;
  m.workingRadiusM = kin_.workingRadius(state_);
  m.momentUtilisation = lastAssessment_.momentUtilisation;
  m.rolloverIndex = lastAssessment_.rolloverIndex;
  m.alarmBits = lastAssessment_.alarms.bits();
  m.simTimeSec = simTime_;
  m.windSpeedMps = wind_.speed();
  m.outriggerProgress = outriggers_.progress();
  cb_->updateAttributeValues(statePub_, encodeCraneState(m), simTime_);
}

void DynamicsModule::emitEvent(const std::string& kind, std::int64_t index,
                               const Vec3& pos) {
  if (cb_ == nullptr) return;
  ScenarioEventMsg ev{kind, index, pos, simTime_};
  cb_->updateAttributeValues(eventPub_, encodeScenarioEvent(ev), simTime_);
}

}  // namespace cod::sim
